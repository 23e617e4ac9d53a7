(** Per-interval network-state monitoring (the kernel instrumentation of
    Section 5, in simulator form).

    A monitor accumulates ACK and loss feedback between monitoring steps
    and produces one {!Observation.t} per interval. An optional
    multiplicative noise source perturbs the observed queueing delay —
    the measurement-noise model of the robustness experiments (±μ uniform
    noise, Section 6.3). *)

type t

val create :
  ?delay_noise:(Canopy_util.Prng.t * float) ->
  min_rtt_ms:int ->
  unit ->
  t
(** [delay_noise (rng, mu)] multiplies each interval's observed queueing
    delay by a uniform factor in [\[1−mu, 1+mu\]]. *)

val on_acks : t -> Canopy_netsim.Env.acks_handler
(** Count a run of [count] acknowledged packets and add their RTTs to
    the interval sum, in O(1): the float the per-ACK additions give. *)

val on_loss : t -> Canopy_netsim.Env.loss_handler
(** Count [count] lost packets. *)

val handlers : t -> Canopy_netsim.Env.handlers
(** {!on_acks} and {!on_loss} as simulator hooks (chainable with the
    backbone controller's). The per-packet paths call {!on_acks} and
    {!on_loss} directly from one per-flow closure instead. *)

val take :
  t -> now_ms:int -> srtt_ms:float -> cwnd_pkts:float -> Observation.t
(** Close the current interval: build the observation and reset the
    accumulators. [srtt_ms] is the sender's smoothed RTT, as Orca's
    monitor reads the kernel's ([Canopy_cc.Cubic.srtt_ms] of the flow's
    backbone, which sees the same ACKs); 0 (no ACK yet) reports the
    interval's average RTT instead. [cwnd_pkts] is the effective window
    that was enforced during the interval. *)

val last_qdelay_noise : t -> float
(** The noise factor applied to the most recent observation (1.0 when
    noise is disabled) — exposed for tests. *)
