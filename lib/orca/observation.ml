type t = {
  thr_mbps : float;
  loss_pkts : int;
  avg_qdelay_ms : float;
  n_acks : int;
  interval_ms : int;
  srtt_ms : float;
  cwnd_pkts : float;
  min_rtt_ms : float;
}

let feature_count = 7
let delay_index = 0

let delay_norm_of_qdelay ~qdelay_ms ~min_rtt_ms =
  if qdelay_ms <= 0. then 0. else qdelay_ms /. (qdelay_ms +. min_rtt_ms)

let qdelay_of_delay_norm ~delay_norm ~min_rtt_ms =
  if delay_norm <= 0. then 0.
  else if delay_norm >= 1. then invalid_arg "Observation.qdelay_of_delay_norm"
  else delay_norm *. min_rtt_ms /. (1. -. delay_norm)

let normalized_delay o =
  delay_norm_of_qdelay ~qdelay_ms:o.avg_qdelay_ms ~min_rtt_ms:o.min_rtt_ms

let saturating x = x /. (x +. 1.)

(* Allocation-free frame encoding for batched observation assembly: the
   fleet writes each flow's frame directly into its slice of the flat
   history block. [to_features] is this over a fresh array. *)
let features_into ~thr_scale_mbps o ~dst ~off =
  if off < 0 || off + feature_count > Array.length dst then
    invalid_arg "Observation.features_into: slice out of bounds";
  let clamp01 = Canopy_util.Mathx.clamp ~lo:0. ~hi:1. in
  let thr_norm =
    if thr_scale_mbps <= 0. then 0. else clamp01 (o.thr_mbps /. thr_scale_mbps)
  in
  let loss_frac =
    let total = o.loss_pkts + o.n_acks in
    if total = 0 then 0. else float_of_int o.loss_pkts /. float_of_int total
  in
  let n_norm = saturating (float_of_int o.n_acks /. 50.) in
  let m_norm = saturating (float_of_int o.interval_ms /. 100.) in
  let srtt_norm =
    if o.srtt_ms <= 0. then 1. else clamp01 (o.min_rtt_ms /. o.srtt_ms)
  in
  let cwnd_norm = clamp01 (Canopy_util.Mathx.log2 (1. +. o.cwnd_pkts) /. 16.) in
  dst.(off) <- clamp01 (normalized_delay o);
  dst.(off + 1) <- thr_norm;
  dst.(off + 2) <- loss_frac;
  dst.(off + 3) <- n_norm;
  dst.(off + 4) <- m_norm;
  dst.(off + 5) <- srtt_norm;
  dst.(off + 6) <- cwnd_norm

let to_features ~thr_scale_mbps o =
  let dst = Array.make feature_count 0. in
  features_into ~thr_scale_mbps o ~dst ~off:0;
  dst

let zero_features = Array.make feature_count 0.
