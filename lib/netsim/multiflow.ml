type config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int array;
  buffer_pkts : int;
  mtu_bytes : int;
  initial_cwnd : float;
}

type return_event =
  | Ev_ack of { flow : int; seq : int; sent_ms : int }
  | Ev_loss of { flow : int }

(* A flow's floats in an all-float record, which OCaml stores flat: the
   per-ACK stores neither box nor pass the write barrier. *)
type flow_floats = {
  mutable cwnd : float;
  mutable qdelay_sum_ms : float; (* over acked packets, in ack order *)
}

type flow_state = {
  min_rtt_ms : int;
  start_ms : int; (* the flow does not send before this time *)
  x : flow_floats;
  mutable inflight : int;
  mutable next_seq : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

type t = {
  cfg : config;
  mutable now_ms : int;
  flows : flow_state array;
  queue : (int * int * int) Queue.t; (* (flow, seq, sent_ms) *)
  mutable queue_len : int;
  mutable credit : float;
  return_path : (int * return_event) Queue.t;
  mutable capacity_pkts : float;
  mutable last_scheduled_ms : int;
}

let create ?start_ms (cfg : config) =
  let n = Array.length cfg.min_rtt_ms in
  if n = 0 then invalid_arg "Multiflow.create: no flows";
  Array.iter
    (fun r -> if r < 2 then invalid_arg "Multiflow.create: min_rtt_ms")
    cfg.min_rtt_ms;
  if cfg.buffer_pkts < 1 then invalid_arg "Multiflow.create: buffer_pkts";
  if not (Float.is_finite cfg.initial_cwnd && cfg.initial_cwnd >= 1.) then
    invalid_arg "Multiflow.create: initial_cwnd";
  let start_ms =
    match start_ms with
    | None -> Array.make n 0
    | Some s ->
        if Array.length s <> n then invalid_arg "Multiflow.create: start_ms";
        Array.iter
          (fun x -> if x < 0 then invalid_arg "Multiflow.create: start_ms")
          s;
        s
  in
  {
    cfg;
    now_ms = 0;
    flows =
      Array.mapi
        (fun i min_rtt_ms ->
          {
            min_rtt_ms;
            start_ms = start_ms.(i);
            x = { cwnd = cfg.initial_cwnd; qdelay_sum_ms = 0. };
            inflight = 0;
            next_seq = 0;
            sent = 0;
            delivered = 0;
            dropped = 0;
          })
        cfg.min_rtt_ms;
    queue = Queue.create ();
    queue_len = 0;
    credit = 0.;
    return_path = Queue.create ();
    capacity_pkts = 0.;
    last_scheduled_ms = 0;
  }

let flows t = Array.length t.flows
let now_ms t = t.now_ms
let cwnd t ~flow = t.flows.(flow).x.cwnd

(* Non-finite windows fail here, as in [Fleet.set_cwnd]. *)
let set_cwnd t ~flow w =
  if not (Float.is_finite w) then
    invalid_arg "Multiflow.set_cwnd: non-finite window";
  t.flows.(flow).x.cwnd <- Float.max 1. w
let inflight t ~flow = t.flows.(flow).inflight
let queue_len t = t.queue_len

(* As in [Fleet]: every send yields exactly one ACK or loss event, so
   an underflow means a packet was reported twice. *)
let release f =
  if f.inflight < 1 then failwith "Multiflow: inflight underflow";
  f.inflight <- f.inflight - 1

(* Flows share the queue, so feedback is reported packet by packet: runs
   of one. *)
let process_return_path t handlers =
  let continue = ref true in
  while !continue && not (Queue.is_empty t.return_path) do
    let arrival, ev = Queue.peek t.return_path in
    if arrival > t.now_ms then continue := false
    else begin
      ignore (Queue.pop t.return_path);
      match ev with
      | Ev_ack { flow; seq; sent_ms } ->
          let f = t.flows.(flow) in
          release f;
          f.delivered <- f.delivered + 1;
          let rtt = t.now_ms - sent_ms in
          f.x.qdelay_sum_ms <-
            f.x.qdelay_sum_ms
            +. Float.max 0. (float_of_int rtt -. float_of_int f.min_rtt_ms);
          handlers.(flow).Env.on_acks ~now_ms:t.now_ms ~rtt_ms:rtt
            ~first_seq:seq ~count:1 ~delivered:f.delivered
      | Ev_loss { flow } ->
          release t.flows.(flow);
          handlers.(flow).Env.on_loss ~now_ms:t.now_ms ~count:1
    end
  done

(* Return-path events are scheduled at sent/dequeue time plus each
   flow's own minRTT, so arrival order is not globally monotone when
   flows have different delays. The O(1) watermark fast-path covers the
   homogeneous-RTT case; heterogeneous mixes trigger an ordered rebuild. *)
let schedule t arrival ev =
  if arrival >= t.last_scheduled_ms then begin
    t.last_scheduled_ms <- arrival;
    Queue.push (arrival, ev) t.return_path
  end
  else begin
    let items = Queue.fold (fun acc x -> x :: acc) [] t.return_path in
    Queue.clear t.return_path;
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      ((arrival, ev) :: List.rev items)
    |> List.iter (fun x -> Queue.push x t.return_path)
  end

let drain_bottleneck t =
  let ppms =
    Canopy_trace.Trace.packets_per_ms ~mtu_bytes:t.cfg.mtu_bytes t.cfg.trace
      t.now_ms
  in
  t.capacity_pkts <- t.capacity_pkts +. ppms;
  t.credit <- t.credit +. ppms;
  let opportunities = int_of_float (Float.floor t.credit) in
  t.credit <- t.credit -. float_of_int opportunities;
  let used = Int.min opportunities t.queue_len in
  for _ = 1 to used do
    let flow, seq, sent_ms = Queue.pop t.queue in
    t.queue_len <- t.queue_len - 1;
    schedule t
      (t.now_ms + t.flows.(flow).min_rtt_ms)
      (Ev_ack { flow; seq; sent_ms })
  done

let sender_fill t =
  (* Round-robin across flows so no flow systematically grabs the last
     buffer slots within a tick. *)
  let n = Array.length t.flows in
  let blocked = Array.make n false in
  let remaining = ref n in
  let i = ref (t.now_ms mod n) in
  while !remaining > 0 do
    let flow = !i mod n in
    let f = t.flows.(flow) in
    if blocked.(flow) then ()
    else if t.now_ms < f.start_ms then begin
      (* Not arrived yet: no sends, no window fill. *)
      blocked.(flow) <- true;
      decr remaining
    end
    else if
      f.inflight >= Int.max 1 (int_of_float (Float.floor f.x.cwnd))
    then begin
      blocked.(flow) <- true;
      decr remaining
    end
    else begin
      let seq = f.next_seq in
      f.next_seq <- f.next_seq + 1;
      f.sent <- f.sent + 1;
      f.inflight <- f.inflight + 1;
      if t.queue_len < t.cfg.buffer_pkts then begin
        Queue.push (flow, seq, t.now_ms) t.queue;
        t.queue_len <- t.queue_len + 1
      end
      else begin
        f.dropped <- f.dropped + 1;
        schedule t (t.now_ms + f.min_rtt_ms) (Ev_loss { flow })
      end
    end;
    incr i
  done

let tick t handlers =
  if Array.length handlers <> Array.length t.flows then
    invalid_arg "Multiflow.tick: handlers";
  t.now_ms <- t.now_ms + 1;
  process_return_path t handlers;
  sender_fill t;
  drain_bottleneck t

let run t handlers ~ms =
  if ms < 0 then invalid_arg "Multiflow.run: ms";
  for _ = 1 to ms do
    tick t handlers
  done

let delivered t ~flow = t.flows.(flow).delivered
let dropped t ~flow = t.flows.(flow).dropped
let sent t ~flow = t.flows.(flow).sent

let loss_rate t ~flow =
  let f = t.flows.(flow) in
  if f.sent = 0 then 0. else float_of_int f.dropped /. float_of_int f.sent

let avg_qdelay_ms t ~flow =
  let f = t.flows.(flow) in
  if f.delivered = 0 then 0.
  else f.x.qdelay_sum_ms /. float_of_int f.delivered

let throughput_mbps t ~flow =
  if t.now_ms = 0 then 0.
  else
    float_of_int t.flows.(flow).delivered
    *. float_of_int t.cfg.mtu_bytes *. 8. /. 1e6
    /. (float_of_int t.now_ms /. 1000.)

let jain_index t =
  Canopy_util.Stats.jain_index
    (Array.map (fun f -> float_of_int f.delivered) t.flows)

let utilization t =
  if t.capacity_pkts <= 0. then 0.
  else begin
    let total =
      Array.fold_left (fun acc f -> acc + f.delivered) 0 t.flows
    in
    Float.min 1. (float_of_int total /. t.capacity_pkts)
  end
