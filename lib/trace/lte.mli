(** LTE-like highly-variable bandwidth traces (Figs. 18–19).

    The paper evaluates on four real cellular traces from Winstein et al.
    that are not shippable here; this generator substitutes a two-state
    Markov-modulated rate process — a "good" regime with large jittery
    capacity and a "fade" regime with deep capacity collapses — which
    reproduces the qualitative stress pattern of commercial LTE downlinks:
    tens-of-Mbps means, per-100ms jitter, and multi-second deep fades. *)

type params = {
  mean_good_mbps : float;  (** average capacity in the good regime *)
  mean_fade_mbps : float;  (** average capacity during fades *)
  jitter : float;  (** per-sample multiplicative jitter amplitude, 0..1 *)
  good_dwell_ms : float;  (** mean dwell time in the good regime *)
  fade_dwell_ms : float;  (** mean dwell time in a fade *)
  sample_ms : int;  (** capacity-sample granularity *)
}

val generate :
  ?params:params -> name:string -> seed:int -> duration_ms:int -> unit -> Trace.t
(** Deterministic for a given seed. [params] defaults to a 48 Mbps good
    regime, 4 Mbps fades, jitter 0.45, dwells of 2.5 s and 0.9 s and
    100 ms samples: the carrier {!standard_suite} tweaks per trace. *)

val standard_suite : ?duration_ms:int -> unit -> Trace.t list
(** The four evaluation traces ("att", "verizon", "tmobile-a",
    "tmobile-b") with fixed seeds and per-carrier parameter tweaks. *)
