(** TCP Reno (NewReno-style AIMD): slow start, additive increase of one
    packet per RTT, multiplicative decrease by half on loss. Included as
    the simplest well-understood baseline and as a reference point for
    tests of the simulator's ACK-clocking behaviour. *)

type t

val create : unit -> t
(** A fresh flow: window 10 packets, in slow start. *)

val on_acks : t -> Canopy_netsim.Env.acks_handler
(** A run of ACKs: the same state as [count] single ACKs. *)

val on_loss : t -> Canopy_netsim.Env.loss_handler
val cwnd : t -> float
val in_slow_start : t -> bool
val to_controller : t -> Controller.t
