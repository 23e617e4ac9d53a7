(** TCP Cubic (Ha, Rhee, Xu) — window growth along a cubic curve anchored
    at the window size before the last loss.

    Cubic is both an evaluation baseline and the fine-grained "backbone"
    that the Orca/Canopy agents modulate (Section 3.1): the agent reads
    {!cwnd} as CWND_TCP in Eq. 1 while Cubic keeps reacting to every ACK
    and loss. *)

type t

val create : unit -> t
(** A fresh flow: window 10 packets, in slow start. *)

val on_acks : t -> Canopy_netsim.Env.acks_handler
(** A run of ACKs: the same state as [count] single ACKs. *)

val on_loss : t -> Canopy_netsim.Env.loss_handler
val cwnd : t -> float
(** Current window suggestion in packets. *)

val in_slow_start : t -> bool
val w_max : t -> float
(** Window size at the last loss event (the cubic anchor point). *)

val srtt_ms : t -> float
(** Smoothed RTT in ms: the EWMA [srtt <- 7/8 srtt + 1/8 rtt] over every
    ACK seen, seeded by the first ACK's RTT; 0 before any ACK. The Orca
    monitor reads it as the kernel's srtt. *)

val force_cwnd : t -> float -> unit
(** Clamp the internal window, used when an external agent caps the
    effective window far below Cubic's suggestion for long periods and the
    suggestion must not diverge unboundedly. *)

val to_controller : t -> Controller.t
