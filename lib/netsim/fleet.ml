(* Struct-of-arrays fleet of bottleneck links: the link simulator. A
   link carries one or more flows, and a one-flow link is the scalar
   link, so the TCP baselines, the Orca episode, the serving fleet and
   the coexistence runs all step the same code.

   A link owns its trace family, buffer, droptail queue (each run tagged
   with its flow), credit and capacity, impairment PRNG and return-path
   watermark. A flow owns its minRTT, window, start time, counters,
   delay histogram and return ring. Per link and per millisecond the
   phases run in the Mahimahi order: process each flow's return ring,
   sender fill, drain the bottleneck. All scalars live in flat arrays
   indexed by link or by flow, queues and return paths are int rings,
   and [run] advances every link through a whole block of milliseconds
   at once so the per-link loop can be chunked over [Canopy_util.Pool]
   (links never share state, so parallel execution is bit-identical to
   sequential by construction).

   Trace lookups are hoisted: [run] precomputes one packets-per-ms table
   per trace family (links sharing a trace by physical equality) and
   every link of the family reads the shared table instead of calling
   [Trace.packets_per_ms] per link per millisecond.

   Queueing delays are kept as an exact per-flow histogram: RTTs are
   whole milliseconds, so one int bin per millisecond of RTT - minRTT
   reproduces the sample multiset in O(max delay) memory.

   Packets travel in runs. A flow's burst of one millisecond is one
   queue entry; the bottleneck dequeues a run's packets in one step, and
   the return ring stores one entry per run of events with the same
   arrival, kind and send time (and, for ACKs, consecutive sequence
   numbers), which reaches the handlers as one call with a count. A run
   is replayed exactly as its packets would have been one by one, so
   per-millisecond work grows with runs, not packets. A link that draws
   per-packet randomness (random loss, ACK jitter, reordering) or
   carries several flows dequeues one packet per step. *)

module Trace = Canopy_trace.Trace
module Prng = Canopy_util.Prng
module Pool = Canopy_util.Pool

(* Return-path event kinds. *)
let ev_ack = 0
let ev_loss = 1

type t = {
  cfgs : Env.config array;
  n : int;
  mutable now_ms : int;
  (* trace families: distinct (trace, mtu) pairs; [family.(l)] indexes
     [fam_trace]/[fam_mtu] *)
  fam_trace : Trace.t array;
  fam_mtu : int array;
  (* [members.(l)] lists link l's flows in ascending order; [link.(i)]
     is flow i's link *)
  members : int array array;
  link : int array;
  (* per-link state, flat *)
  family : int array;
  buffer : int array;
  random_loss : float array;
  jitter : int array;
  reorder_prob : float array;
  reorder_ms : int array;
  per_packet : bool array;
  credit : float array;
  capacity_pkts : float array;
  last_scheduled : int array;
  (* bottleneck queue: per-link fixed-capacity ring of runs (flow, first
     seq, sent_ms, packet count), [q_runs] runs holding [q_len] packets.
     q_len <= buffer_pkts (droptail) and every run holds a packet, so
     capacity = buffer_pkts runs *)
  q_flow : int array array;
  q_seq : int array array;
  q_sent : int array array;
  q_count : int array array;
  q_head : int array;
  q_runs : int array;
  q_len : int array;
  rng : Prng.t array;
  (* per-flow state, flat *)
  min_rtt : int array;
  start_ms : int array;
  cwnd : float array;
  inflight : int array;
  next_seq : int array;
  sent : int array;
  delivered : int array;
  dropped : int array;
  (* queueing-delay histogram: [qd_hist.(i).(q)] counts flow i's acks
     with RTT - minRTT = q ms; the outer slots are replaced on growth *)
  qd_hist : int array array;
  qd_sum_ms : int array;
  (* return path: per-flow growable ring of event runs (arrival, kind,
     first seq, sent_ms, count); the outer slots are replaced on
     growth *)
  r_arrival : int array array;
  r_kind : int array array;
  r_seq : int array array;
  r_sent : int array array;
  r_count : int array array;
  r_head : int array;
  r_len : int array;
}

let check_config (cfg : Env.config) =
  if cfg.min_rtt_ms < 2 then invalid_arg "Fleet.create: min_rtt_ms";
  if cfg.buffer_pkts < 1 then invalid_arg "Fleet.create: buffer_pkts";
  if cfg.mtu_bytes <= 0 then invalid_arg "Fleet.create: mtu_bytes";
  if not (Float.is_finite cfg.initial_cwnd && cfg.initial_cwnd >= 1.) then
    invalid_arg "Fleet.create: initial_cwnd";
  (* Written so that a NaN fails: every comparison with NaN is false,
     and a NaN probability would silently never fire. *)
  let is_prob p = p >= 0. && p < 1. in
  if not (is_prob cfg.impairments.random_loss) then
    invalid_arg "Fleet.create: random_loss";
  if cfg.impairments.ack_jitter_ms < 0 then
    invalid_arg "Fleet.create: ack_jitter_ms";
  if not (is_prob cfg.impairments.reorder_prob) then
    invalid_arg "Fleet.create: reorder_prob";
  if cfg.impairments.reorder_ms < 0 then
    invalid_arg "Fleet.create: reorder_ms"

(* Flows on one link must agree on everything the link owns. *)
let check_same_link (a : Env.config) (b : Env.config) =
  let differ what =
    invalid_arg ("Fleet.create: flows on one link differ in " ^ what)
  in
  if a.trace != b.trace then differ "trace";
  if a.buffer_pkts <> b.buffer_pkts then differ "buffer_pkts";
  if a.mtu_bytes <> b.mtu_bytes then differ "mtu_bytes";
  let x = a.impairments and y = b.impairments in
  if
    not
      (Float.equal x.random_loss y.random_loss
      && x.ack_jitter_ms = y.ack_jitter_ms
      && Float.equal x.reorder_prob y.reorder_prob
      && x.reorder_ms = y.reorder_ms
      && x.seed = y.seed)
  then differ "impairments"

let create ?start_ms ?link cfgs =
  let n = Array.length cfgs in
  if n = 0 then invalid_arg "Fleet.create: no flows";
  Array.iter check_config cfgs;
  let start_ms =
    match start_ms with
    | None -> Array.make n 0
    | Some s ->
        if Array.length s <> n || Array.exists (fun x -> x < 0) s then
          invalid_arg "Fleet.create: start_ms";
        Array.copy s
  in
  (* Links are numbered in order of first appearance of their names. *)
  let link =
    match link with
    | None -> Array.init n Fun.id
    | Some names ->
        if Array.length names <> n then invalid_arg "Fleet.create: link";
        let ids = Hashtbl.create 16 in
        Array.map
          (fun name ->
            match Hashtbl.find_opt ids name with
            | Some l -> l
            | None ->
                let l = Hashtbl.length ids in
                Hashtbl.add ids name l;
                l)
          names
  in
  let nlinks = 1 + Array.fold_left Int.max 0 link in
  let members =
    let acc = Array.make nlinks [] in
    for i = n - 1 downto 0 do
      acc.(link.(i)) <- i :: acc.(link.(i))
    done;
    Array.map Array.of_list acc
  in
  Array.iter
    (fun fl -> Array.iter (fun i -> check_same_link cfgs.(fl.(0)) cfgs.(i)) fl)
    members;
  (* What each link owns comes from its first flow's config. *)
  let lcfg = Array.map (fun fl -> cfgs.(fl.(0))) members in
  (* Dedup trace families by physical equality on the trace (plus mtu,
     which scales the packets-per-ms conversion). *)
  let fams = ref [] (* reversed (trace, mtu) list *) and nfam = ref 0 in
  let family =
    Array.map
      (fun (cfg : Env.config) ->
        let rec find k = function
          | [] -> None
          | (tr, mtu) :: tl ->
              if tr == cfg.trace && mtu = cfg.mtu_bytes then Some (k - 1)
              else find (k - 1) tl
        in
        match find !nfam !fams with
        | Some k -> k
        | None ->
            fams := (cfg.trace, cfg.mtu_bytes) :: !fams;
            incr nfam;
            !nfam - 1)
      lcfg
  in
  let fam_arr = Array.of_list (List.rev !fams) in
  let per_link f = Array.map f lcfg in
  let ring () = per_link (fun (c : Env.config) -> Array.make c.buffer_pkts 0) in
  {
    cfgs;
    n;
    now_ms = 0;
    fam_trace = Array.map fst fam_arr;
    fam_mtu = Array.map snd fam_arr;
    members;
    link;
    family;
    buffer = per_link (fun c -> c.buffer_pkts);
    random_loss = per_link (fun c -> c.impairments.random_loss);
    jitter = per_link (fun c -> c.impairments.ack_jitter_ms);
    reorder_prob = per_link (fun c -> c.impairments.reorder_prob);
    reorder_ms = per_link (fun c -> c.impairments.reorder_ms);
    per_packet =
      Array.mapi
        (fun l (c : Env.config) ->
          Array.length members.(l) > 1
          || c.impairments.random_loss > 0.
          || c.impairments.ack_jitter_ms > 0
          || c.impairments.reorder_prob > 0.)
        lcfg;
    credit = Array.make nlinks 0.;
    capacity_pkts = Array.make nlinks 0.;
    last_scheduled = Array.make nlinks 0;
    q_flow = ring ();
    q_seq = ring ();
    q_sent = ring ();
    q_count = ring ();
    q_head = Array.make nlinks 0;
    q_runs = Array.make nlinks 0;
    q_len = Array.make nlinks 0;
    rng = per_link (fun c -> Prng.create c.impairments.seed);
    min_rtt = Array.map (fun (c : Env.config) -> c.min_rtt_ms) cfgs;
    start_ms;
    cwnd = Array.map (fun (c : Env.config) -> c.initial_cwnd) cfgs;
    inflight = Array.make n 0;
    next_seq = Array.make n 0;
    sent = Array.make n 0;
    delivered = Array.make n 0;
    dropped = Array.make n 0;
    qd_hist = Array.init n (fun _ -> [||]);
    qd_sum_ms = Array.make n 0;
    r_arrival = Array.init n (fun _ -> Array.make 16 0);
    r_kind = Array.init n (fun _ -> Array.make 16 0);
    r_seq = Array.init n (fun _ -> Array.make 16 0);
    r_sent = Array.init n (fun _ -> Array.make 16 0);
    r_count = Array.init n (fun _ -> Array.make 16 0);
    r_head = Array.make n 0;
    r_len = Array.make n 0;
  }

let flows t = t.n
let now_ms t = t.now_ms
let cwnd t ~flow = t.cwnd.(flow)
(* A NaN would pass [Float.max] and an infinity would reach
   [int_of_float] in [quota] (on x86-64, +inf becomes [min_int] there,
   then a window of 1): both fail here instead. *)
let set_cwnd t ~flow w =
  if not (Float.is_finite w) then
    invalid_arg "Fleet.set_cwnd: non-finite window";
  t.cwnd.(flow) <- Float.max 1. w
let inflight t ~flow = t.inflight.(flow)
let queue_len t ~flow = t.q_len.(t.link.(flow))
let sent t ~flow = t.sent.(flow)
let delivered t ~flow = t.delivered.(flow)
let dropped t ~flow = t.dropped.(flow)
let capacity_pkts t ~flow = t.capacity_pkts.(t.link.(flow))

(* ------------------------------------------------------------------ *)
(* Return-path ring *)

(* Grow ×2, unrolling the ring to offset 0 (order preserved). *)
let ret_grow t i =
  let cap = Array.length t.r_arrival.(i) in
  let head = t.r_head.(i) and len = t.r_len.(i) in
  let grow src =
    let dst = Array.make (2 * cap) 0 in
    for k = 0 to len - 1 do
      dst.(k) <- src.((head + k) mod cap)
    done;
    dst
  in
  t.r_arrival.(i) <- grow t.r_arrival.(i);
  t.r_kind.(i) <- grow t.r_kind.(i);
  t.r_seq.(i) <- grow t.r_seq.(i);
  t.r_sent.(i) <- grow t.r_sent.(i);
  t.r_count.(i) <- grow t.r_count.(i);
  t.r_head.(i) <- 0

(* Schedules a run of flow [i]'s events on link [l]. Each ring is always
   sorted by arrival. The link's watermark is the latest arrival any of
   its flows appended: an event at or after it is appended to flow [i]'s
   ring, an earlier one goes in before the first queued event of the
   flow whose arrival is >= its own. That is where a single shared
   ring, stably sorted with the new event in front, would put it among
   the flow's events, so each flow sees its events in the shared ring's
   order. (With ACK jitter, reordering or flows of different minRTTs an
   event can arrive before the watermark.) The append is O(1); an
   out-of-order insert is a binary search plus a shift of the events
   after it, and leaves the watermark untouched.

   A new run joins a queued one when the handlers would see the two
   back to back with nothing between them, so the merged entry replays
   the same events in the same order: an in-order append extends the
   tail entry if both have the same arrival, kind and send time and, for
   ACKs, the new run's first seq follows the tail's last; an
   out-of-order loss run is folded into the loss run it would land in
   front of, if that has the same arrival (loss events carry no seq or
   send time, so their order within the run does not matter). *)
let schedule t l i arrival kind seq sent_ms count =
  if t.r_len.(i) = Array.length t.r_arrival.(i) then ret_grow t i;
  let arr = t.r_arrival.(i) and kinds = t.r_kind.(i) in
  let seqs = t.r_seq.(i) and sents = t.r_sent.(i) in
  let counts = t.r_count.(i) in
  let cap = Array.length arr and head = t.r_head.(i) and len = t.r_len.(i) in
  (* The slot for a new entry, or -1 when the run joined a queued one. *)
  let pos =
    if arrival >= t.last_scheduled.(l) then begin
      t.last_scheduled.(l) <- arrival;
      let tail = (head + len - 1) mod cap in
      if
        len > 0
        && arr.(tail) = arrival
        && kinds.(tail) = kind
        && sents.(tail) = sent_ms
        && (kind = ev_loss || seqs.(tail) + counts.(tail) = seq)
      then begin
        counts.(tail) <- counts.(tail) + count;
        -1
      end
      else len
    end
    else begin
      let lo = ref 0 and hi = ref len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if arr.((head + mid) mod cap) < arrival then lo := mid + 1
        else hi := mid
      done;
      let at = (head + !lo) mod cap in
      if
        kind = ev_loss && !lo < len && arr.(at) = arrival
        && kinds.(at) = ev_loss
      then begin
        counts.(at) <- counts.(at) + count;
        -1
      end
      else begin
        for k = len downto !lo + 1 do
          let dst = (head + k) mod cap and src = (head + k - 1) mod cap in
          arr.(dst) <- arr.(src);
          kinds.(dst) <- kinds.(src);
          seqs.(dst) <- seqs.(src);
          sents.(dst) <- sents.(src);
          counts.(dst) <- counts.(src)
        done;
        !lo
      end
    end
  in
  if pos >= 0 then begin
    let p = (head + pos) mod cap in
    arr.(p) <- arrival;
    kinds.(p) <- kind;
    seqs.(p) <- seq;
    sents.(p) <- sent_ms;
    counts.(p) <- count;
    t.r_len.(i) <- len + 1
  end

(* ------------------------------------------------------------------ *)
(* One millisecond of one link *)

(* Slow path of the histogram bump: a delay past the last bin. Bins at
   least double, rounded up to a multiple of 32, so a flow regrows
   O(log max delay) times. Fixed-size steps would copy O(max delay²)
   words per flow while the interval runs: on a 264-flow serving episode
   that garbage costs an extra major GC cycle and more peak heap than
   doubling's overshoot. *)
let bump_grown_bins t i q count =
  if q < 0 then failwith "Fleet: RTT below minRTT";
  let bins = t.qd_hist.(i) in
  let want = Int.max (q + 1) (2 * Array.length bins) in
  let grown = Array.make ((want + 31) / 32 * 32) 0 in
  Array.blit bins 0 grown 0 (Array.length bins);
  grown.(q) <- count;
  t.qd_hist.(i) <- grown

(* One handler call per run: the counters, the histogram bin and the
   delay sum move by the run's count at once. *)
let process_return_path t (handlers : Env.handlers array) i ~now =
  let continue = ref true in
  while !continue && t.r_len.(i) > 0 do
    let head = t.r_head.(i) in
    let arrival = t.r_arrival.(i).(head) in
    if arrival > now then continue := false
    else begin
      let kind = t.r_kind.(i).(head) and count = t.r_count.(i).(head) in
      let seq = t.r_seq.(i).(head) and sent_ms = t.r_sent.(i).(head) in
      let cap = Array.length t.r_arrival.(i) in
      t.r_head.(i) <- (head + 1) mod cap;
      t.r_len.(i) <- t.r_len.(i) - 1;
      (* Every send adds one to [inflight] and yields exactly one ACK or
         loss event, so a correct simulator never takes the counter
         below zero; an underflow means packets were reported twice. *)
      let inflight = t.inflight.(i) - count in
      if inflight < 0 then failwith "Fleet: inflight underflow";
      t.inflight.(i) <- inflight;
      if kind = ev_ack then begin
        let delivered = t.delivered.(i) + count in
        t.delivered.(i) <- delivered;
        let rtt = now - sent_ms in
        let q = rtt - t.min_rtt.(i) in
        let bins = t.qd_hist.(i) in
        if q >= 0 && q < Array.length bins then bins.(q) <- bins.(q) + count
        else bump_grown_bins t i q count;
        t.qd_sum_ms.(i) <- t.qd_sum_ms.(i) + (q * count);
        handlers.(i).Env.on_acks ~now_ms:now ~rtt_ms:rtt ~first_seq:seq ~count
          ~delivered
      end
      else handlers.(i).Env.on_loss ~now_ms:now ~count
    end
  done

(* Packets flow [i] may still send at [now]: what its window leaves,
   nothing before its start time. *)
let[@inline] quota t i ~now =
  if now < t.start_ms.(i) then 0
  else begin
    let window = Int.max 1 (int_of_float (Float.floor t.cwnd.(i))) in
    window - t.inflight.(i)
  end

(* Flow [i] sends [k] packets at once: the first ones that fit in the
   buffer join the queue, extending the tail run if that is the flow's
   own from this millisecond (its seqs then follow on, since a full
   buffer stays full until the drain), and the rest are tail-dropped as
   one loss run. The sender learns about a drop one minRTT later,
   approximating dup-ACK detection. *)
let send t l i ~now k =
  let seq = t.next_seq.(i) in
  t.next_seq.(i) <- seq + k;
  t.sent.(i) <- t.sent.(i) + k;
  t.inflight.(i) <- t.inflight.(i) + k;
  let queued = Int.min k (t.buffer.(l) - t.q_len.(l)) in
  if queued > 0 then begin
    let cap = t.buffer.(l) and runs = t.q_runs.(l) in
    (* head < cap and runs <= cap: one wrap at most, and no division *)
    let tail = t.q_head.(l) + runs in
    let tail = if tail >= cap then tail - cap else tail in
    let last = if tail = 0 then cap - 1 else tail - 1 in
    if runs > 0 && t.q_sent.(l).(last) = now && t.q_flow.(l).(last) = i
    then t.q_count.(l).(last) <- t.q_count.(l).(last) + queued
    else begin
      t.q_flow.(l).(tail) <- i;
      t.q_seq.(l).(tail) <- seq;
      t.q_sent.(l).(tail) <- now;
      t.q_count.(l).(tail) <- queued;
      t.q_runs.(l) <- runs + 1
    end;
    t.q_len.(l) <- t.q_len.(l) + queued
  end;
  let lost = k - queued in
  if lost > 0 then begin
    t.dropped.(i) <- t.dropped.(i) + lost;
    schedule t l i (now + t.min_rtt.(i)) ev_loss 0 0 lost
  end

(* Round-robin from the flow at position [now mod flows]: each round,
   every flow that has started and has window left sends one packet.
   Once a single flow has window left, it sends the rest at once, which
   is what packet by packet sends would do; a one-flow link therefore
   sends its whole burst in one step. *)
let sender_fill t l fl ~now =
  let m = Array.length fl in
  if m > 1 then begin
    let active = ref 0 in
    for j = 0 to m - 1 do
      if quota t fl.(j) ~now > 0 then incr active
    done;
    let j = ref (now mod m) in
    while !active > 1 do
      let i = fl.(!j) in
      if quota t i ~now > 0 then begin
        send t l i ~now 1;
        if quota t i ~now = 0 then decr active
      end;
      j := (!j + 1) mod m
    done
  end;
  for j = 0 to m - 1 do
    let k = quota t fl.(j) ~now in
    if k > 0 then send t l fl.(j) ~now k
  done

(* Each step dequeues [k] packets from the head run and schedules their
   feedback as one run of the run's flow. A per-packet link takes k = 1:
   an impaired link makes its draws packet by packet, in the per-packet
   order, and a shared link schedules each ACK by itself so it lands
   where a shared return queue would put it. Any other link takes as
   much of the head run as the opportunities allow. *)
let drain_bottleneck t l ~now ~ppms_tab ~ms_index =
  (* The rate is read here rather than passed in: a float argument would
     be boxed once per link·ms. *)
  let ppms = ppms_tab.(ms_index) in
  t.capacity_pkts.(l) <- t.capacity_pkts.(l) +. ppms;
  t.credit.(l) <- t.credit.(l) +. ppms;
  let opportunities = int_of_float (Float.floor t.credit.(l)) in
  t.credit.(l) <- t.credit.(l) -. float_of_int opportunities;
  let left = ref (Int.min opportunities t.q_len.(l)) in
  let per_packet = t.per_packet.(l) in
  let cap = t.buffer.(l) in
  while !left > 0 do
    let head = t.q_head.(l) in
    let i = t.q_flow.(l).(head) in
    let seq = t.q_seq.(l).(head) and sent_ms = t.q_sent.(l).(head) in
    let run = t.q_count.(l).(head) in
    let k = if per_packet then 1 else Int.min !left run in
    if k = run then begin
      t.q_head.(l) <- (head + 1) mod cap;
      t.q_runs.(l) <- t.q_runs.(l) - 1
    end
    else begin
      t.q_seq.(l).(head) <- seq + k;
      t.q_count.(l).(head) <- run - k
    end;
    t.q_len.(l) <- t.q_len.(l) - k;
    left := !left - k;
    if t.random_loss.(l) > 0. && Prng.float t.rng.(l) 1. < t.random_loss.(l)
    then begin
      (* non-congestive (e.g. wireless) loss after the bottleneck *)
      t.dropped.(i) <- t.dropped.(i) + k;
      schedule t l i (now + t.min_rtt.(i)) ev_loss 0 0 k
    end
    else begin
      (* The ACK returns minRTT after the dequeue instant, plus any
         return-path jitter. *)
      let jitter =
        if t.jitter.(l) = 0 then 0 else Prng.int t.rng.(l) (t.jitter.(l) + 1)
      in
      (* Reordering: with probability [reorder_prob] the feedback is held
         back an extra [reorder_ms], so later packets' ACKs overtake it.
         Both draws are gated on their knobs, so a reorder-free config
         consumes exactly the reorder-free PRNG stream. *)
      let reorder =
        if
          t.reorder_prob.(l) > 0.
          && Prng.float t.rng.(l) 1. < t.reorder_prob.(l)
        then t.reorder_ms.(l)
        else 0
      in
      schedule t l i
        (now + t.min_rtt.(i) + jitter + reorder)
        ev_ack seq sent_ms k
    end
  done

let tick_link t handlers l fl ~now ~ppms_tab ~ms_index =
  for j = 0 to Array.length fl - 1 do
    process_return_path t handlers fl.(j) ~now
  done;
  (* Fill before draining so a packet can use a delivery opportunity in
     the millisecond it arrives (Mahimahi semantics): an uncongested path
     then yields RTT = minRTT exactly. *)
  sender_fill t l fl ~now;
  drain_bottleneck t l ~now ~ppms_tab ~ms_index

(* ------------------------------------------------------------------ *)
(* Fleet driver *)

(* Below this much link·ms work, chunk setup costs more than it saves. *)
let par_threshold = 16_384

(* Chunk choice is a pure function of the workload shape — never of
   scheduling — and the per-link stepping itself is link-local, so any
   chunking (including none) produces identical bits. *)
let plan_chunk ~n ~ms =
  (* A lone link never touches the pool, so scalar callers neither spawn
     it nor hand their link to a worker. *)
  if n < 2 then None
  else if Pool.in_task () then None
  else if Pool.domains (Pool.default ()) < 2 then None
  else if n * ms < par_threshold then None
  else Some (Int.max 1 (8_192 / Int.max 1 ms))

let run ?after_tick t handlers ~ms =
  if Array.length handlers <> t.n then
    invalid_arg "Fleet.run: one handlers record per flow";
  if ms < 0 then invalid_arg "Fleet.run: ms";
  if ms > 0 then begin
    let now0 = t.now_ms in
    (* Shared read-only packets-per-ms table, one row per trace family:
       row f, entry k is the family's delivery opportunities in
       millisecond [now0 + 1 + k]. *)
    let ppms_tab =
      Array.init (Array.length t.fam_trace) (fun f ->
          let tr = t.fam_trace.(f) and mtu = t.fam_mtu.(f) in
          Array.init ms (fun k ->
              Trace.packets_per_ms ~mtu_bytes:mtu tr (now0 + 1 + k)))
    in
    let step_range ~lo ~hi =
      for l = lo to hi - 1 do
        let tab = ppms_tab.(t.family.(l)) and fl = t.members.(l) in
        for k = 0 to ms - 1 do
          tick_link t handlers l fl ~now:(now0 + k + 1) ~ppms_tab:tab
            ~ms_index:k;
          match after_tick with
          | Some f ->
              for j = 0 to Array.length fl - 1 do
                f fl.(j)
              done
          | None -> ()
        done
      done
    in
    let links = Array.length t.members in
    (match plan_chunk ~n:links ~ms with
    | Some chunk -> Pool.parallel_for_chunks ~chunk links step_range
    | None -> step_range ~lo:0 ~hi:links);
    t.now_ms <- now0 + ms
  end

(* ------------------------------------------------------------------ *)
(* Per-flow metrics *)

let stats t ~flow =
  {
    Env.sent = t.sent.(flow);
    delivered = t.delivered.(flow);
    dropped = t.dropped.(flow);
    capacity_pkts = capacity_pkts t ~flow;
  }

let utilization t ~flow =
  let capacity = capacity_pkts t ~flow in
  if capacity <= 0. then 0.
  else Float.min 1. (float_of_int t.delivered.(flow) /. capacity)

let loss_rate t ~flow =
  if t.sent.(flow) = 0 then 0.
  else float_of_int t.dropped.(flow) /. float_of_int t.sent.(flow)

let avg_qdelay_ms t ~flow =
  if t.delivered.(flow) = 0 then 0.
  else float_of_int t.qd_sum_ms.(flow) /. float_of_int t.delivered.(flow)

let qdelay_array_ms t ~flow =
  let out = Array.make t.delivered.(flow) 0. in
  let k = ref 0 in
  Array.iteri
    (fun q count ->
      Array.fill out !k count (float_of_int q);
      k := !k + count)
    t.qd_hist.(flow);
  out

let throughput_mbps t ~flow =
  if t.now_ms = 0 then 0.
  else
    float_of_int t.delivered.(flow)
    *. float_of_int t.cfgs.(flow).Env.mtu_bytes
    *. 8. /. 1e6
    /. (float_of_int t.now_ms /. 1000.)
