(* The band Vegas keeps its queue estimate in, in packets. *)
let alpha = 2.
let beta = 4.

(* All-float record: OCaml stores it flat, so the per-ACK stores
   neither box nor pass the write barrier. *)
type floats = {
  mutable cwnd : float;
  mutable base_rtt_ms : float;
  mutable epoch_rtt_sum : float;
}

type t = {
  x : floats;
  mutable epoch_start_ms : int;
  mutable epoch_acks : int;
  mutable in_slow_start : bool;
  mutable last_loss_ms : int;
}

let create () =
  {
    x =
      {
        cwnd = 10.;
        base_rtt_ms = Float.infinity;
        epoch_rtt_sum = 0.;
      };
    epoch_start_ms = 0;
    epoch_acks = 0;
    in_slow_start = true;
    last_loss_ms = -1_000_000;
  }

let cwnd t = t.x.cwnd
let base_rtt_ms t = t.x.base_rtt_ms

let on_acks t ~now_ms ~rtt_ms ~first_seq:_ ~count ~delivered:_ =
  let x = t.x in
  let rtt = float_of_int rtt_ms in
  for _ = 1 to count do
    if rtt < x.base_rtt_ms then x.base_rtt_ms <- rtt;
    x.epoch_rtt_sum <- x.epoch_rtt_sum +. rtt;
    t.epoch_acks <- t.epoch_acks + 1;
    (* Evaluate the expected-vs-actual rate difference once per RTT. *)
    if float_of_int (now_ms - t.epoch_start_ms) >= x.base_rtt_ms
       && t.epoch_acks > 0
    then begin
      let avg_rtt = x.epoch_rtt_sum /. float_of_int t.epoch_acks in
      let diff = x.cwnd *. (1. -. (x.base_rtt_ms /. avg_rtt)) in
      (* The floor at 2 is [Float.max 2. w] as one comparison, as in
         Cubic: the bound is positive and not NaN. *)
      let w = x.cwnd -. 1. in
      let shrunk = if w <= 2. then 2. else w in
      if t.in_slow_start then begin
        if diff > alpha then begin
          t.in_slow_start <- false;
          x.cwnd <- shrunk
        end
        else x.cwnd <- x.cwnd +. 1.
      end
      else if diff < alpha then x.cwnd <- x.cwnd +. 1.
      else if diff > beta then x.cwnd <- shrunk;
      t.epoch_start_ms <- now_ms;
      x.epoch_rtt_sum <- 0.;
      t.epoch_acks <- 0
    end
    else if t.in_slow_start then
      (* Grow every other ACK during slow start, as in the original. *)
      x.cwnd <- x.cwnd +. 0.5
  done

(* Before the first ACK the base RTT is infinite and the guard's
   [int_of_float] is no bound at all, so every loss backs off: the run's
   losses apply one by one. *)
let on_loss t ~now_ms ~count =
  let x = t.x in
  for _ = 1 to count do
    let base = x.base_rtt_ms in
    if now_ms - t.last_loss_ms >= int_of_float (if base <= 5. then 5. else base)
    then begin
      t.last_loss_ms <- now_ms;
      t.in_slow_start <- false;
      let w = x.cwnd *. 0.75 in
      x.cwnd <- (if w <= 2. then 2. else w)
    end
  done

let to_controller t =
  {
    Controller.name = "vegas";
    on_acks = on_acks t;
    on_loss = on_loss t;
    cwnd = (fun () -> cwnd t);
  }
