(* The per-ACK floats live in an all-float record, which OCaml stores
   flat: a store writes the double in place, with no boxing and no
   write barrier. *)
type floats = { mutable rtt_sum_ms : float; mutable last_noise : float }

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
    x = { rtt_sum_ms = 0.; last_noise = 1. };
  }

(* One addition per run. The sum only ever holds whole milliseconds
   below 2^53, so adding [count * rtt_ms] at once is exact: the same
   float as [count] additions of [rtt_ms]. *)
let on_acks t ~now_ms:_ ~rtt_ms ~first_seq:_ ~count ~delivered:_ =
  t.acks <- t.acks + count;
  t.x.rtt_sum_ms <- t.x.rtt_sum_ms +. float_of_int (count * rtt_ms)

let on_loss t ~now_ms:_ ~count = t.losses <- t.losses + count

let handlers t =
  { Canopy_netsim.Env.on_acks = on_acks t; on_loss = on_loss t }

let last_qdelay_noise t = t.x.last_noise

let take t ~now_ms ~srtt_ms ~cwnd_pkts =
  let interval_ms = Int.max 1 (now_ms - t.last_take_ms) in
  let avg_rtt =
    if t.acks = 0 then float_of_int t.min_rtt_ms
    else t.x.rtt_sum_ms /. float_of_int t.acks
  in
  (* [Float.max 0. d] as one comparison: the bound is +0, so a -0 or NaN
     [d] gives what the stdlib's [max] gives. *)
  let qdelay =
    let d = avg_rtt -. float_of_int t.min_rtt_ms in
    if d <= 0. then 0. else d
  in
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
      srtt_ms = (if srtt_ms = 0. then avg_rtt else srtt_ms);
      cwnd_pkts;
      min_rtt_ms = float_of_int t.min_rtt_ms;
    }
  in
  t.acks <- 0;
  t.losses <- 0;
  t.x.rtt_sum_ms <- 0.;
  t.last_take_ms <- now_ms;
  obs
