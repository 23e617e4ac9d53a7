(* Windowed extremum filter over (timestamp, value) samples, implemented
   as a monotonic list: good enough for the handful of live samples BBR
   keeps. [better a b] returns true when [a] should shadow [b]. *)
module Wfilter = struct
  type t = {
    mutable items : (int * float) list; (* oldest first, monotonic *)
    better : float -> float -> bool;
  }

  let create better = { items = []; better }

  let push t ~now_ms ~window_ms value =
    let fresh (ts, _) = now_ms - ts <= window_ms in
    (* Newest first: the new value dominates a prefix of the entries;
       the first one it does not dominate, and all older ones, stay. *)
    let rec keep = function
      | (_, v) :: rest when t.better value v -> keep rest
      | l -> l
    in
    (* Drop stale entries from the front, dominated entries from the back. *)
    let live = List.filter fresh t.items in
    t.items <- List.rev (( now_ms, value) :: keep (List.rev live))

  let current t =
    match t.items with [] -> None | (_, v) :: _ -> Some v
end

type mode = Startup | Drain | Probe_bw | Probe_rtt

let startup_gain = 2.885
let drain_gain = 0.8
let probe_gains = [| 1.25; 0.75; 1.; 1.; 1.; 1.; 1.; 1. |]
let bw_window_factor = 10 (* bandwidth window = 10 rt_prop *)
let rtprop_window_ms = 10_000
let probe_rtt_interval_ms = 10_000
let probe_rtt_duration_ms = 200
let min_cwnd = 4.

(* All-float record: OCaml stores it flat, so the per-ACK stores
   neither box nor pass the write barrier. *)
type floats = {
  mutable cwnd : float;
  mutable rt_prop_ms : float;
  mutable full_bw : float; (* startup full-pipe detection *)
}

type t = {
  x : floats;
  mutable mode : mode;
  bw_filter : Wfilter.t;
  mutable rt_prop_stamp_ms : int;
  (* delivery-rate sampling epoch *)
  mutable epoch_start_ms : int;
  mutable epoch_delivered : int;
  mutable full_bw_count : int; (* startup rounds without bandwidth growth *)
  (* probe-bw phase *)
  mutable phase : int;
  mutable phase_start_ms : int;
  (* probe-rtt bookkeeping *)
  mutable probe_rtt_done_ms : int;
  mutable last_probe_rtt_ms : int;
}

let create ?(initial_cwnd = 10.) () =
  {
    x = { cwnd = initial_cwnd; rt_prop_ms = Float.infinity; full_bw = 0. };
    mode = Startup;
    bw_filter = Wfilter.create (fun a b -> a >= b);
    rt_prop_stamp_ms = 0;
    epoch_start_ms = 0;
    epoch_delivered = 0;
    full_bw_count = 0;
    phase = 0;
    phase_start_ms = 0;
    probe_rtt_done_ms = 0;
    last_probe_rtt_ms = 0;
  }

let cwnd t = t.x.cwnd
let btl_bw_pkts_per_ms t = Option.value ~default:0. (Wfilter.current t.bw_filter)
let rt_prop_ms t = t.x.rt_prop_ms

let mode t =
  match t.mode with
  | Startup -> "startup"
  | Drain -> "drain"
  | Probe_bw -> "probe_bw"
  | Probe_rtt -> "probe_rtt"

let bdp t =
  let bw = btl_bw_pkts_per_ms t in
  if bw <= 0. || t.x.rt_prop_ms = Float.infinity then 0.
  else bw *. t.x.rt_prop_ms

let update_cwnd t =
  let bdp = bdp t in
  let target =
    match t.mode with
    | Startup -> if bdp > 0. then startup_gain *. bdp else t.x.cwnd +. 1.
    | Drain -> drain_gain *. bdp
    | Probe_bw -> probe_gains.(t.phase) *. bdp
    | Probe_rtt -> min_cwnd
  in
  (* [Float.max min_cwnd target] as one comparison: the bound is
     positive and not NaN, so the two agree on every [target]. *)
  t.x.cwnd <- (if target <= min_cwnd then min_cwnd else target)

let advance_state t ~now_ms =
  (match t.mode with
  | Startup ->
      let bw = btl_bw_pkts_per_ms t in
      if bw > t.x.full_bw *. 1.25 then begin
        t.x.full_bw <- bw;
        t.full_bw_count <- 0
      end
      else begin
        t.full_bw_count <- t.full_bw_count + 1;
        if t.full_bw_count >= 3 then begin
          t.mode <- Drain;
          t.phase_start_ms <- now_ms
        end
      end
  | Drain ->
      (* Stay in drain for two propagation RTTs, long enough for the
         startup queue to empty at 0.8 gain. *)
      let rtprop =
        if t.x.rt_prop_ms = Float.infinity then 10. else t.x.rt_prop_ms
      in
      if float_of_int (now_ms - t.phase_start_ms) >= 2. *. rtprop then begin
        t.mode <- Probe_bw;
        t.phase <- 0;
        t.phase_start_ms <- now_ms
      end
  | Probe_bw ->
      let rtprop =
        if t.x.rt_prop_ms = Float.infinity then 10. else t.x.rt_prop_ms
      in
      if float_of_int (now_ms - t.phase_start_ms) >= rtprop then begin
        t.phase <- (t.phase + 1) mod Array.length probe_gains;
        t.phase_start_ms <- now_ms
      end;
      if now_ms - t.last_probe_rtt_ms >= probe_rtt_interval_ms
         && now_ms - t.rt_prop_stamp_ms >= rtprop_window_ms / 2
      then begin
        t.mode <- Probe_rtt;
        t.probe_rtt_done_ms <- now_ms + probe_rtt_duration_ms
      end
  | Probe_rtt ->
      if now_ms >= t.probe_rtt_done_ms then begin
        t.last_probe_rtt_ms <- now_ms;
        t.mode <- Probe_bw;
        t.phase <- 0;
        t.phase_start_ms <- now_ms
      end);
  update_cwnd t

let on_acks t ~now_ms ~rtt_ms ~first_seq:_ ~count ~delivered =
  let x = t.x in
  let rtt = float_of_int rtt_ms in
  for k = 0 to count - 1 do
    (* The k-th ACK of the run carries its own delivered count. *)
    let delivered = delivered - count + 1 + k in
    if rtt <= x.rt_prop_ms then begin
      x.rt_prop_ms <- rtt;
      t.rt_prop_stamp_ms <- now_ms
    end;
    (* Delivery-rate sample once per (estimated) RTT. *)
    let rtprop = if x.rt_prop_ms = Float.infinity then 10. else x.rt_prop_ms in
    let epoch_ms = now_ms - t.epoch_start_ms in
    let sample_ms = if rtprop <= 1. then 1. else rtprop in
    if float_of_int epoch_ms >= sample_ms then begin
      let rate =
        float_of_int (delivered - t.epoch_delivered) /. float_of_int epoch_ms
      in
      let window_rtt = if rtprop <= 10. then 10. else rtprop in
      Wfilter.push t.bw_filter ~now_ms
        ~window_ms:(bw_window_factor * int_of_float window_rtt)
        rate;
      t.epoch_start_ms <- now_ms;
      t.epoch_delivered <- delivered;
      advance_state t ~now_ms
    end
    else if t.mode = Startup && bdp t = 0. then
      (* Bootstrap: no bandwidth sample yet, grow like slow start. *)
      x.cwnd <- x.cwnd +. 1.
  done

(* Each loss compounds the back-off, so the run's losses apply one by
   one. *)
let on_loss t ~now_ms:_ ~count =
  (* BBR is not loss-driven; it only backs off slightly on sustained
     loss to bound queue build-up in small buffers. *)
  for _ = 1 to count do
    let w = t.x.cwnd *. 0.95 in
    t.x.cwnd <- (if w <= min_cwnd then min_cwnd else w)
  done

let to_controller t =
  {
    Controller.name = "bbr";
    on_acks = on_acks t;
    on_loss = on_loss t;
    cwnd = (fun () -> cwnd t);
  }
