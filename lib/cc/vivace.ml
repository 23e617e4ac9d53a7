(* Rate clamps in packets per ms (1 pkt/ms = 12 Mbps at MTU 1500). *)
let min_rate = 0.02
let max_rate = 200.
let probe_epsilon = 0.05

(* Utility weights from the Vivace paper: throughput exponent (t),
   latency gradient (b) and loss (c). *)
let utility_exponent = 0.9
let latency_weight = 900.
let loss_weight = 11.35

type phase =
  | Starting  (** multiplicative search while utility keeps improving *)
  | Probe_up  (** monitor interval at rate·(1+ε) *)
  | Probe_down  (** monitor interval at rate·(1−ε) *)

(* All-float record: OCaml stores it flat, so the per-ACK stores
   neither box nor pass the write barrier. *)
type floats = {
  mutable rate : float; (* pkts per ms, the decision variable *)
  mutable srtt_ms : float;
  mutable min_rtt_ms : float;
  (* current monitor interval *)
  mutable mi_first_rtt : float;
  mutable mi_last_rtt : float;
  (* learning state *)
  mutable last_utility : float;
  mutable probe_up_utility : float;
  mutable step_size : float; (* confidence-amplified gradient step *)
  mutable last_gradient_sign : float;
}

type t = {
  x : floats;
  mutable phase : phase;
  (* current monitor interval *)
  mutable mi_start_ms : int;
  mutable mi_acks : int;
  mutable mi_losses : int;
}

let create () =
  {
    x =
      {
        rate = 1.;
        srtt_ms = 0.;
        min_rtt_ms = Float.infinity;
        mi_first_rtt = 0.;
        mi_last_rtt = 0.;
        last_utility = 0.;
        probe_up_utility = 0.;
        step_size = 0.05;
        last_gradient_sign = 0.;
      };
    phase = Starting;
    mi_start_ms = 0;
    mi_acks = 0;
    mi_losses = 0;
  }

let rate_pkts_per_ms t = t.x.rate
let utility t = t.x.last_utility

let effective_rate t =
  match t.phase with
  | Starting -> t.x.rate
  | Probe_up -> t.x.rate *. (1. +. probe_epsilon)
  | Probe_down -> t.x.rate *. (1. -. probe_epsilon)

let cwnd t =
  (* Convert the target rate to a window using the propagation RTT, not
     the smoothed one: sizing by an inflated sRTT would create a positive
     feedback loop (queueing grows the window grows the queue). *)
  let rtt = if t.x.min_rtt_ms = Float.infinity then 40. else t.x.min_rtt_ms in
  let w = effective_rate t *. rtt in
  if w <= 2. then 2. else w

(* Here, in [cwnd] above and in [interval_utility] below, [Float.max c
   v] is written as one comparison, as in Cubic: each bound is a
   constant >= +0, not NaN. *)
let rtt_estimate t = if t.x.srtt_ms <= 10. then 10. else t.x.srtt_ms

(* A rate change only manifests in the ACK stream one RTT later, so each
   monitor interval starts with a one-RTT warmup whose ACKs are ignored
   (PCC's MI alignment), followed by one RTT of measurement. *)
let warmup_ms t = int_of_float (rtt_estimate t)
let mi_duration_ms t = 2 * int_of_float (rtt_estimate t)

let in_measurement t ~now_ms = now_ms - t.mi_start_ms >= warmup_ms t

(* Utility of the just-finished monitor interval (Vivace's U). *)
let interval_utility t ~duration_ms =
  let measured_ms = Int.max 1 (duration_ms - warmup_ms t) in
  let x = float_of_int t.mi_acks /. float_of_int measured_ms in
  if x <= 0. then 0.
  else begin
    let latency_gradient =
      (t.x.mi_last_rtt -. t.x.mi_first_rtt)
      /. float_of_int (Int.max 1 duration_ms)
    in
    let total = t.mi_acks + t.mi_losses in
    let loss = float_of_int t.mi_losses /. float_of_int (Int.max 1 total) in
    let rising = if latency_gradient <= 0. then 0. else latency_gradient in
    (x ** utility_exponent)
    -. (latency_weight *. x *. rising)
    -. (loss_weight *. x *. loss)
  end

let set_rate t r =
  t.x.rate <- Canopy_util.Mathx.clamp ~lo:min_rate ~hi:max_rate r

let close_interval t ~now_ms =
  let duration_ms = now_ms - t.mi_start_ms in
  let u = interval_utility t ~duration_ms in
  (match t.phase with
  | Starting ->
      (* Double while the utility keeps improving; otherwise settle and
         start gradient probing. *)
      if u >= t.x.last_utility && t.mi_losses = 0 then
        set_rate t (t.x.rate *. 2.)
      else begin
        set_rate t (t.x.rate /. 2.);
        t.phase <- Probe_up
      end;
      t.x.last_utility <- u
  | Probe_up ->
      t.x.probe_up_utility <- u;
      t.phase <- Probe_down
  | Probe_down ->
      (* Empirical utility gradient over the probe pair. *)
      let gradient =
        (t.x.probe_up_utility -. u) /. (2. *. probe_epsilon *. t.x.rate)
      in
      let sign = Canopy_util.Mathx.sign gradient in
      (* Confidence amplification: consecutive same-direction moves take
         larger steps; a direction flip resets the step size. *)
      if sign <> 0. && sign = t.x.last_gradient_sign then
        let s = t.x.step_size *. 1.5 in
        t.x.step_size <- (if s > 0.5 then 0.5 else s)
      else t.x.step_size <- 0.05;
      t.x.last_gradient_sign <- sign;
      set_rate t (t.x.rate +. (sign *. t.x.step_size *. t.x.rate));
      t.x.last_utility <- u;
      t.phase <- Probe_up);
  t.mi_start_ms <- now_ms;
  t.mi_acks <- 0;
  t.mi_losses <- 0;
  t.x.mi_first_rtt <- 0.;
  t.x.mi_last_rtt <- 0.

let maybe_close t ~now_ms =
  if now_ms - t.mi_start_ms >= mi_duration_ms t then close_interval t ~now_ms

let on_acks t ~now_ms ~rtt_ms ~first_seq:_ ~count ~delivered:_ =
  let x = t.x in
  let rtt = float_of_int rtt_ms in
  for _ = 1 to count do
    if rtt < x.min_rtt_ms then x.min_rtt_ms <- rtt;
    x.srtt_ms <-
      (if x.srtt_ms = 0. then rtt else (0.875 *. x.srtt_ms) +. (0.125 *. rtt));
    if in_measurement t ~now_ms then begin
      if t.mi_acks = 0 then x.mi_first_rtt <- rtt;
      x.mi_last_rtt <- rtt;
      t.mi_acks <- t.mi_acks + 1
    end;
    maybe_close t ~now_ms
  done

(* A loss can close the monitor interval, which changes whether the next
   one is measured: the run's losses apply one by one. *)
let on_loss t ~now_ms ~count =
  for _ = 1 to count do
    if in_measurement t ~now_ms then t.mi_losses <- t.mi_losses + 1;
    maybe_close t ~now_ms
  done

let to_controller t =
  {
    Controller.name = "vivace";
    on_acks = on_acks t;
    on_loss = on_loss t;
    cwnd = (fun () -> cwnd t);
  }
