(* Eqs. 2–3: the weight of loss against throughput (ζ), the forgiveness
   band over the propagation floor (β) and the clip of the reward. *)
let zeta = 5.
let beta = 1.25
let clip_lo = -1.
let clip_hi = 1.

type t = { mutable thr_max_mbps : float }

let create () = { thr_max_mbps = 0. }

let thr_max_mbps t = t.thr_max_mbps

let of_observation t (o : Observation.t) =
  (* Once per flow and interval; the running max of two variables. *)
  t.thr_max_mbps <-
    Float.max t.thr_max_mbps o.thr_mbps (* lint-ignore: float-c-call *);
  if t.thr_max_mbps <= 0. then 0.
  else begin
    let d_min = o.min_rtt_ms in
    let delay = o.avg_qdelay_ms +. d_min (* average RTT *) in
    let delay' =
      if d_min <= delay && delay <= beta *. d_min then d_min else delay
    in
    let loss_mbps =
      float_of_int o.loss_pkts
      *. float_of_int Canopy_netsim.Env.default_mtu *. 8. /. 1e6
      /. (float_of_int o.interval_ms /. 1000.)
    in
    let r =
      (o.thr_mbps -. (zeta *. loss_mbps))
      /. delay' /. (t.thr_max_mbps /. d_min)
    in
    Canopy_util.Mathx.clamp ~lo:clip_lo ~hi:clip_hi r
  end
