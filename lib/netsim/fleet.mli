(** Struct-of-arrays fleet of bottleneck links: the link simulator of
    the {!Env} model.

    A fleet holds any number of links, each carrying one or more flows,
    in flat per-link and per-flow arrays, and advances all of them
    through blocks of milliseconds at once. A link owns its trace, its
    buffer and droptail queue, its credit and offered capacity, its
    impairment PRNG and its return-path watermark; a flow owns its
    minRTT, window, start time, counters, queueing-delay histogram and
    return path. Queues and return paths hold runs of packets, not
    packets: the packets a flow's send puts in the queue in one
    millisecond are one entry, and feedback that returns together (same
    arrival, kind and send time, consecutive seqs) is one entry and one
    handler call. Every trajectory is that of a per-packet simulator,
    bit for bit; per-packet randomness (random loss, ACK jitter,
    reordering) makes its draws packet by packet, in the same order. A
    one-flow fleet is the scalar link: the TCP baselines
    ([Canopy_cc.Runner]) and the Orca episode step one, and a lone link
    never touches the domain pool.

    Flows on one link contend for its queue (DESIGN §12, "Links with
    several flows"): each millisecond the link delivers every flow's due
    feedback, fills round-robin starting from the flow at position
    [now mod flows] (each round, every flow that has started and has
    window left sends one packet), then drains one packet per step.
    Each flow's feedback reaches it in the order one shared,
    arrival-sorted return queue would deliver it.

    Links sharing a trace (by physical equality, at equal MTU) form a
    trace family: [run] computes one packets-per-ms table per family and
    every member link reads it, instead of one trace lookup per link per
    millisecond. The per-link loop is chunked over
    [Canopy_util.Pool.default ()] with pure chunking; links share no
    mutable state, so results are bit-identical at any domain count
    (sequential included).

    Queueing delays are kept as an exact per-flow histogram, one int bin
    per whole millisecond of RTT − minRTT, grown on demand by doubling
    (in multiples of 32 bins). RTTs are whole milliseconds, so the histogram is the sample
    multiset: its mean, percentiles and RTT mean equal those of the
    per-ack samples to the bit, in O(max delay) memory rather than
    O(acks). *)

type t

val create : ?start_ms:int array -> ?link:int array -> Env.config array -> t
(** One flow per config, all with empty queues at time 0.
    [link.(i)] names flow [i]'s link: flows with equal names share one
    link (default: every flow has its own link). Flows on one link must
    agree on the trace (physically), the buffer, the MTU and the
    impairments; they may differ in minRTT and initial window.
    [start_ms.(i)] delays flow [i]'s first transmission (default all
    0): a flow holds its window but sends nothing before millisecond
    [start_ms.(i)]. Raises [Invalid_argument] on an empty array, an
    invalid config (minRTT < 2, empty buffer, non-positive MTU, an
    initial window that is not a finite number >= 1, probabilities
    outside \[0,1) or NaN, negative delays), flows on one link that
    disagree, or a [link] or [start_ms] array whose length is not the
    flow count or (for [start_ms]) with a negative entry. *)

val flows : t -> int
val now_ms : t -> int

val cwnd : t -> flow:int -> float

val set_cwnd : t -> flow:int -> float -> unit
(** Clamped below at 1 packet. Raises [Invalid_argument] on a NaN or
    infinite window. *)

val inflight : t -> flow:int -> int

val queue_len : t -> flow:int -> int
(** Packets in the queue of the flow's link, from all its flows. *)

val run :
  ?after_tick:(int -> unit) -> t -> Env.handlers array -> ms:int -> unit
(** [run t handlers ~ms] advances every link by [ms] milliseconds;
    [handlers.(i)] receives flow [i]'s ack/loss runs. Each millisecond
    of a link delivers its flows' due ACKs and loss notifications
    (invoking the handlers once per run), lets the senders fill their
    windows, then drains the bottleneck according to the trace.
    [after_tick i] (if given) runs after each millisecond of flow [i]'s
    link — the hook a congestion controller backbone uses to refresh
    the flow's cwnd mid-interval.
    Handlers and [after_tick] execute inside pool chunks and therefore
    must touch only flow-local state (no cross-flow writes, no shared
    accumulators); this is what keeps fleet stepping race-free and
    bit-identical at any domain count. Raises [Failure] if the packet
    accounting breaks (an RTT below minRTT, more feedback than packets
    in flight), which a correct simulator never does. *)

(** {2 Per-flow counters and metrics} *)

val sent : t -> flow:int -> int
val delivered : t -> flow:int -> int
val dropped : t -> flow:int -> int
val capacity_pkts : t -> flow:int -> float
(** Delivery opportunities the trace has offered the flow's link so
    far, shared by all of the link's flows. *)

val stats : t -> flow:int -> Env.stats

val utilization : t -> flow:int -> float
(** The flow's delivered packets over its link's offered capacity so
    far; 0 before any tick. *)

val loss_rate : t -> flow:int -> float
(** Dropped over sent; 0 before any send. *)

val avg_qdelay_ms : t -> flow:int -> float
(** Mean queueing delay over all acked packets; [0.] before any ack. *)

val qdelay_array_ms : t -> flow:int -> float array
(** Every acked packet's queueing delay (RTT − minRTT), ascending: one
    entry per delivered packet. *)

val throughput_mbps : t -> flow:int -> float
(** Delivered payload rate over the whole run; [0.] at time 0. *)
