(* All-float record: OCaml stores it flat, so the per-ACK stores
   neither box nor pass the write barrier. *)
type floats = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable srtt_ms : float;
}

type t = { x : floats; mutable last_loss_ms : int }

let create () =
  {
    x = { cwnd = 10.; ssthresh = Float.infinity; srtt_ms = 0. };
    last_loss_ms = -1_000_000;
  }

let cwnd t = t.x.cwnd
let in_slow_start t = t.x.cwnd < t.x.ssthresh

let on_acks t ~now_ms:_ ~rtt_ms ~first_seq:_ ~count ~delivered:_ =
  let x = t.x in
  let rtt = float_of_int rtt_ms in
  for _ = 1 to count do
    x.srtt_ms <-
      (if x.srtt_ms = 0. then rtt else (0.875 *. x.srtt_ms) +. (0.125 *. rtt));
    if in_slow_start t then x.cwnd <- x.cwnd +. 1.
    else x.cwnd <- x.cwnd +. (1. /. x.cwnd)
  done

(* As in Cubic, the >= 5 ms guard makes every loss after the first of a
   millisecond a no-op, so one reaction stands for the whole run. The
   floors are [Float.max c v] as one comparison, as in Cubic. *)
let on_loss t ~now_ms ~count:_ =
  let x = t.x in
  let guard_ms = int_of_float (if x.srtt_ms <= 5. then 5. else x.srtt_ms) in
  if now_ms - t.last_loss_ms >= guard_ms then begin
    t.last_loss_ms <- now_ms;
    let w = x.cwnd /. 2. in
    x.cwnd <- (if w <= 2. then 2. else w);
    x.ssthresh <- x.cwnd
  end

let to_controller t =
  {
    Controller.name = "reno";
    on_acks = on_acks t;
    on_loss = on_loss t;
    cwnd = (fun () -> cwnd t);
  }
