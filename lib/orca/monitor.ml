(* The per-ACK floats live in an all-float record, which OCaml stores
   flat: a store writes the double in place, with no boxing and no
   write barrier. *)
type floats = {
  mutable rtt_sum_ms : float;
  mutable srtt_ms : float;
  mutable last_noise : float;
}

type t = {
  min_rtt_ms : int;
  delay_noise : (Canopy_util.Prng.t * float) option;
  mutable acks : int;
  mutable losses : int;
  mutable last_take_ms : int;
  x : floats;
}

let create ?delay_noise ~min_rtt_ms () =
  (match delay_noise with
  | Some (_, mu) when mu < 0. || mu >= 1. ->
      invalid_arg "Monitor.create: noise amplitude"
  | _ -> ());
  {
    min_rtt_ms;
    delay_noise;
    acks = 0;
    losses = 0;
    last_take_ms = 0;
    x = { rtt_sum_ms = 0.; srtt_ms = 0.; last_noise = 1. };
  }

let on_acks t ~now_ms:_ ~rtt_ms ~first_seq:_ ~count ~delivered:_ =
  t.acks <- t.acks + count;
  let x = t.x in
  let rtt = float_of_int rtt_ms in
  for _ = 1 to count do
    x.rtt_sum_ms <- x.rtt_sum_ms +. rtt;
    x.srtt_ms <-
      (if x.srtt_ms = 0. then rtt else (0.875 *. x.srtt_ms) +. (0.125 *. rtt))
  done

let on_loss t ~now_ms:_ ~count = t.losses <- t.losses + count

let handlers t =
  { Canopy_netsim.Env.on_acks = on_acks t; on_loss = on_loss t }

let srtt_ms t = t.x.srtt_ms
let last_qdelay_noise t = t.x.last_noise

let take t ~now_ms ~cwnd_pkts =
  let interval_ms = Int.max 1 (now_ms - t.last_take_ms) in
  let avg_rtt =
    if t.acks = 0 then float_of_int t.min_rtt_ms
    else t.x.rtt_sum_ms /. float_of_int t.acks
  in
  let qdelay = Float.max 0. (avg_rtt -. float_of_int t.min_rtt_ms) in
  let noise =
    match t.delay_noise with
    | None -> 1.
    | Some (rng, mu) -> Canopy_util.Prng.uniform rng (1. -. mu) (1. +. mu)
  in
  t.x.last_noise <- noise;
  let thr_mbps =
    float_of_int t.acks *. float_of_int Canopy_netsim.Env.default_mtu *. 8.
    /. 1e6
    /. (float_of_int interval_ms /. 1000.)
  in
  let obs =
    {
      Observation.thr_mbps;
      loss_pkts = t.losses;
      avg_qdelay_ms = qdelay *. noise;
      n_acks = t.acks;
      interval_ms;
      srtt_ms = (if t.x.srtt_ms = 0. then avg_rtt else t.x.srtt_ms);
      cwnd_pkts;
      min_rtt_ms = float_of_int t.min_rtt_ms;
    }
  in
  t.acks <- 0;
  t.losses <- 0;
  t.x.rtt_sum_ms <- 0.;
  t.last_take_ms <- now_ms;
  obs
