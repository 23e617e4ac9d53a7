(** Shared types of the millisecond-granularity bottleneck-link model.

    The model is the Mahimahi link the paper evaluates on: a trace-driven
    bottleneck where each millisecond offers a number of MTU-sized packet
    delivery opportunities (wasted when the queue is empty), a droptail
    FIFO buffer in front of it, and a fixed propagation delay so that
    [RTT = minRTT + queueing delay]. The reverse (ACK) path is
    uncongested.

    The sender transmits whenever fewer packets are in flight than the
    current congestion window; the window itself is set from outside each
    tick, which is what lets a learned controller override its TCP
    backbone's suggestion (Eq. 1). Packets dropped at the queue surface to
    the sender as a loss event one minRTT later, approximating dup-ACK
    detection.

    {!Fleet} is the simulator: it advances any number of independent
    links, and a one-flow fleet is the scalar link. This module holds what
    its callers share: the per-link configuration, the ack/loss event
    handlers and the cumulative counters.

    Feedback reaches the handlers in runs: packets sent in the same
    millisecond and dequeued in the same millisecond return together,
    with consecutive sequence numbers and one RTT, so the simulator
    reports them as one event with a count (DESIGN §12). *)

type acks_handler =
  now_ms:int -> rtt_ms:int -> first_seq:int -> count:int -> delivered:int ->
  unit
(** A run of [count >= 1] acknowledged packets, all reaching the sender
    at [now_ms] with RTT [rtt_ms] (minRTT + queueing delay): sequence
    numbers [first_seq .. first_seq + count - 1] in order, and
    [delivered] is the cumulative delivered count including the whole
    run, so the k-th ACK (from 0) would have seen
    [delivered - count + 1 + k]. A handler behaves as if it had seen
    those [count] ACKs one by one. *)

type loss_handler = now_ms:int -> count:int -> unit
(** [count >= 1] lost packets detected at [now_ms], as if reported one
    by one. *)

type handlers = { on_acks : acks_handler; on_loss : loss_handler }

type impairments = {
  random_loss : float;  (** probability of non-congestive packet loss *)
  ack_jitter_ms : int;  (** max extra delay added to each ACK's return *)
  reorder_prob : float;
      (** probability that a delivered packet's feedback is held back by
          [reorder_ms], letting later packets' ACKs overtake it *)
  reorder_ms : int;  (** extra delay applied to reordered packets *)
  seed : int;  (** PRNG seed for the impairment processes *)
}
(** Optional link pathologies beyond droptail congestion: wireless-style
    random loss, return-path jitter and packet reordering. All feed the
    measurement noise the robustness property is about. *)

val no_impairments : impairments

type config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;  (** two-way propagation delay, >= 2 *)
  buffer_pkts : int;  (** droptail queue capacity, >= 1 *)
  mtu_bytes : int;
  initial_cwnd : float;
  impairments : impairments;
}

val default_mtu : int
(** 1500 bytes. *)

val bdp_pkts : mbps:float -> min_rtt_ms:int -> mtu_bytes:int -> int
(** Bandwidth-delay product in packets, at least 1. *)

(** Cumulative counters of one link since creation. *)
type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  capacity_pkts : float;  (** delivery opportunities offered by the trace *)
}
