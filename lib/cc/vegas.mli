(** TCP Vegas (Brakmo & Peterson) — delay-based congestion avoidance.

    Once per RTT, Vegas compares the expected rate [cwnd / baseRTT] with
    the actual rate [cwnd / RTT] and keeps the difference (in packets)
    between [alpha] and [beta] by adjusting the window by one packet.
    Used as the delay-sensitive baseline: the paper positions the learned
    performance property as achieving "the best of Cubic and Vegas". *)

type t

val create : ?alpha:float -> ?beta:float -> ?initial_cwnd:float -> unit -> t
(** Defaults: [alpha = 2.], [beta = 4.] packets. *)

val on_acks : t -> Canopy_netsim.Env.acks_handler
(** A run of ACKs: the same state as [count] single ACKs. *)

val on_loss : t -> Canopy_netsim.Env.loss_handler
val cwnd : t -> float
val base_rtt_ms : t -> float
(** Current minimum-RTT estimate; [infinity] before the first ACK. *)

val to_controller : t -> Controller.t
