(* Constants follow RFC 8312: C = 0.4, beta_cubic = 0.7. Time is in
   seconds inside the cubic polynomial. *)
let c_cubic = 0.4
let beta_cubic = 0.7
let max_cwnd = 100_000.
let initial_cwnd = 10.

(* The per-ACK floats live in an all-float record, which OCaml stores
   flat: a store writes the double in place, with no boxing and no
   write barrier. *)
type floats = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable w_max : float;
  mutable k : float; (* time (s) for the cubic to return to w_max *)
  mutable srtt_ms : float;
}

type t = {
  x : floats;
  mutable epoch_start_ms : int; (* -1 = not started *)
  mutable last_loss_ms : int;
}

let create () =
  {
    x =
      {
        cwnd = initial_cwnd;
        ssthresh = Float.infinity;
        w_max = initial_cwnd;
        k = 0.;
        srtt_ms = 0.;
      };
    epoch_start_ms = -1;
    last_loss_ms = -1_000_000;
  }

let cwnd t = t.x.cwnd
let in_slow_start t = t.x.cwnd < t.x.ssthresh
let w_max t = t.x.w_max
let srtt_ms t = t.x.srtt_ms

let cube_root x = Float.pow x (1. /. 3.)

(* The per-ACK update, once per ACK of the run. The cubic target
   depends on the time, the RTT and the epoch (its start, K and w_max);
   the ACKs of a run share the first two, and once the epoch has started
   no ACK changes the third, so the target is computed once per run, on
   the first ACK in congestion avoidance.

   The cap is [Float.min max_cwnd v] written as one comparison: the
   bound is positive and not NaN, so the stdlib's [min] reduces to it
   for every [v] (a NaN or -0 [v] is returned as is), and the stdlib's
   form would call [caml_signbit] on every ACK below the cap (DESIGN
   §12, "The per-packet path"). *)
let on_acks t ~now_ms ~rtt_ms ~first_seq:_ ~count ~delivered:_ =
  let x = t.x in
  let rtt = float_of_int rtt_ms in
  let target_known = ref false and w_cubic = ref 0. in
  for _ = 1 to count do
    x.srtt_ms <-
      (if x.srtt_ms = 0. then rtt else (0.875 *. x.srtt_ms) +. (0.125 *. rtt));
    if in_slow_start t then begin
      let w = x.cwnd +. 1. in
      x.cwnd <- (if w > max_cwnd then max_cwnd else w)
    end
    else begin
      if not !target_known then begin
        if t.epoch_start_ms < 0 then begin
          t.epoch_start_ms <- now_ms;
          x.k <- cube_root (x.w_max *. (1. -. beta_cubic) /. c_cubic)
        end;
        (* Target the cubic curve one RTT ahead, per the RFC. *)
        let elapsed_s =
          float_of_int (now_ms - t.epoch_start_ms + rtt_ms) /. 1000.
        in
        w_cubic := (c_cubic *. ((elapsed_s -. x.k) ** 3.)) +. x.w_max;
        target_known := true
      end;
      let w =
        if !w_cubic > x.cwnd then x.cwnd +. ((!w_cubic -. x.cwnd) /. x.cwnd)
        else
          (* In the TCP-friendly / plateau region grow at least like Reno. *)
          x.cwnd +. (0.3 /. x.cwnd)
      in
      x.cwnd <- (if w > max_cwnd then max_cwnd else w)
    end
  done

(* The guard is at least 5 ms and a loss leaves sRTT alone, so after the
   first loss of a millisecond the rest are no-ops: one reaction stands
   for the whole run. [if v <= c then c else v] is [Float.max c v] for
   a positive constant [c], NaN included. *)
let on_loss t ~now_ms ~count:_ =
  (* React at most once per (smoothed) RTT so a burst of drops from one
     overflow counts as a single congestion event. *)
  let x = t.x in
  let guard_ms = int_of_float (if x.srtt_ms <= 5. then 5. else x.srtt_ms) in
  if now_ms - t.last_loss_ms >= guard_ms then begin
    t.last_loss_ms <- now_ms;
    x.w_max <- x.cwnd;
    let w = x.cwnd *. beta_cubic in
    x.cwnd <- (if w <= 2. then 2. else w);
    x.ssthresh <- x.cwnd;
    t.epoch_start_ms <- -1
  end

let force_cwnd t w =
  t.x.cwnd <- Canopy_util.Mathx.clamp ~lo:2. ~hi:max_cwnd w

let to_controller t =
  {
    Controller.name = "cubic";
    on_acks = on_acks t;
    on_loss = on_loss t;
    cwnd = (fun () -> cwnd t);
  }
