(** PCC Vivace (Dong et al., NSDI'18) — online-learning congestion
    control, cited by the paper as a representative learned controller.

    Vivace is rate-based: it probes a small rate perturbation in
    alternating directions, scores each monitor interval with the utility
    [U(x) = x^t − b·x·(d(RTT)/dt) − c·x·L] (throughput reward, latency-
    gradient penalty, loss penalty), and moves the rate along the empirical
    utility gradient with a confidence-amplified step. This window-clocked
    adaptation keeps the published utility and gradient-ascent structure
    while driving the simulator through a congestion window
    ([cwnd = rate · RTT]). *)

type t

val create : unit -> t
(** A fresh flow at 1 packet per ms, in the starting phase. The utility
    follows the paper: [t = 0.9], [b = 900], [c = 11.35]. *)

val on_acks : t -> Canopy_netsim.Env.acks_handler
(** A run of ACKs: the same state as [count] single ACKs. *)

val cwnd : t -> float

val rate_pkts_per_ms : t -> float
(** Current sending-rate estimate. *)

val utility : t -> float
(** Utility of the last completed monitor interval (0 before the first). *)

val to_controller : t -> Controller.t
