(** Model-based congestion control in the style of BBR (Cardwell et al.).

    Maintains windowed estimates of the bottleneck bandwidth (max filter
    over recent delivery-rate samples) and of the propagation RTT (min
    filter), and sets the congestion window to a gain times the estimated
    bandwidth-delay product while cycling through probing gains. The state
    machine follows the published design — Startup, Drain, ProbeBW with an
    eight-phase gain cycle, and periodic ProbeRTT — but is window-based
    rather than pacing-based, which is the standard simplification for
    window-clocked simulators and preserves the delay-vs-throughput
    trade-off the evaluation plots. *)

type t

val create : unit -> t
(** A fresh flow: window 10 packets, in Startup. *)

val on_acks : t -> Canopy_netsim.Env.acks_handler
(** A run of ACKs: the same state as [count] single ACKs. *)

val on_loss : t -> Canopy_netsim.Env.loss_handler
val cwnd : t -> float

val btl_bw_pkts_per_ms : t -> float
(** Current bottleneck-bandwidth estimate; 0 before any sample. *)

val rt_prop_ms : t -> float
(** Current propagation-RTT estimate; [infinity] before the first ACK. *)

val mode : t -> string
(** ["startup"], ["drain"], ["probe_bw"] or ["probe_rtt"] — exposed for
    tests and debugging output. *)

val to_controller : t -> Controller.t
