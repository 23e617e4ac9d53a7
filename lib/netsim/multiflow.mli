(** Multiple senders sharing one bottleneck link.

    Extends the single-flow {!Env} model to [n] competing flows: one
    trace-driven bottleneck with a shared droptail queue, per-flow
    propagation delays and congestion windows, and per-flow ACK/loss
    feedback. Enables fairness studies (Jain's index, bandwidth shares)
    that a learned controller must not regress — a deployment concern
    adjacent to the paper's single-flow evaluation. *)

type config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int array;  (** per-flow two-way propagation delay, each >= 2 *)
  buffer_pkts : int;  (** shared droptail queue capacity *)
  mtu_bytes : int;
  initial_cwnd : float;
}

type t

val create : ?start_ms:int array -> config -> t
(** Raises [Invalid_argument] on an empty flow list, invalid sizes or an
    initial window that is not a finite number >= 1.
    [start_ms.(i)] delays flow [i]'s first transmission (default all 0):
    a late-arriving flow holds its window but sends nothing until its
    start time, modelling staggered competing-flow arrivals. The array
    must match the flow count and be non-negative. *)

val flows : t -> int
val now_ms : t -> int
val cwnd : t -> flow:int -> float
val set_cwnd : t -> flow:int -> float -> unit
(** Clamped below at 1 packet. Raises [Invalid_argument] on a NaN or
    infinite window. *)

val inflight : t -> flow:int -> int
val queue_len : t -> int

val tick : t -> Env.handlers array -> unit
(** Advance one millisecond; [handlers.(i)] receives flow [i]'s feedback.
    Raises [Invalid_argument] when the array length differs from the flow
    count. *)

val run : t -> Env.handlers array -> ms:int -> unit

val delivered : t -> flow:int -> int
val dropped : t -> flow:int -> int
val sent : t -> flow:int -> int

val loss_rate : t -> flow:int -> float
(** Dropped over sent for the flow; [0.] before any send. *)

val avg_qdelay_ms : t -> flow:int -> float
(** Mean queueing delay (RTT minus the flow's minRTT) over the flow's
    acked packets; [0.] before any ack. *)

val throughput_mbps : t -> flow:int -> float
(** Average delivered rate of the flow since creation. *)

val jain_index : t -> float
(** Jain's fairness index over per-flow delivered counts
    ([Canopy_util.Stats.jain_index]); 1 when all flows received
    identical shares, [1/n] in the most unfair case. Returns 1 for
    fewer than two flows or before any delivery. *)

val utilization : t -> float
(** Aggregate delivered packets over offered capacity. *)
