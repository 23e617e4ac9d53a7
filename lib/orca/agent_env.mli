(** The Orca RL environment for a single flow: a one-flow view of
    {!Fleet_env}.

    Each {!step} applies the agent's action [a ∈ \[-1,1\]] through Eq. 1
    ([CWND = 2^{2a} · CWND_TCP]), enforces the resulting window for one
    monitoring interval while Cubic keeps performing fine-grained control
    inside it, and returns the next agent state (the concatenated feature
    frames of the past [history] observations) together with the raw
    reward. Every accessor reads flow 0 of the underlying fleet. *)

type config = Fleet_env.config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  buffer_pkts : int;
  duration_ms : int;  (** episode length *)
  history : int;  (** k past observation frames in the state *)
  interval_ms : int option;  (** monitoring period; default max(20, minRTT) *)
  delay_noise : (Canopy_util.Prng.t * float) option;
      (** multiplicative noise on the observed queueing delay *)
  impairments : Canopy_netsim.Env.impairments;
      (** link pathologies (random loss, ACK jitter, reordering) *)
  reward : Reward.config;
}

val default_config :
  trace:Canopy_trace.Trace.t ->
  min_rtt_ms:int ->
  buffer_pkts:int ->
  duration_ms:int ->
  config
(** history = 5, automatic interval, no noise, default reward. *)

val state_dim : config -> int
(** [history × Observation.feature_count]. *)

type t

val create : config -> t
(** A fresh episode. Raises [Invalid_argument] as {!Fleet_env.create}. *)

val interval_ms : t -> int

val reset : t -> float array
(** Rebuild the link and backbone from scratch; returns the initial
    (zero-history) state. *)

type step_result = {
  state : float array;  (** next agent state *)
  raw_reward : float;  (** Orca reward for the elapsed interval *)
  observation : Observation.t;  (** the interval's observation *)
  cwnd_tcp : float;  (** Cubic's suggestion before enforcement (CWND_TCP) *)
  cwnd_enforced : float;  (** the window actually applied (Eq. 1) *)
  finished : bool;  (** episode reached [duration_ms] *)
}

val step : t -> action:float -> step_result
(** Raises [Invalid_argument] as {!Fleet_env.step}: the action is outside
    [\[-1,1\]] or the episode already finished. *)

val prev_cwnd_enforced : t -> float
(** {!Fleet_env.prev_cwnd_enforced}. *)

val cwnd_tcp : t -> float
(** {!Fleet_env.cwnd_tcp}: the CWND_TCP the next {!step} will scale. *)

val state : t -> float array
(** Current agent state without advancing the environment. *)

val env_stats : t -> Canopy_netsim.Env.stats
val utilization : t -> float
val qdelay_array_ms : t -> float array
val avg_qdelay_ms : t -> float

val qdelay_percentile_ms : t -> float -> float
(** [Fleet.qdelay_percentile_ms] of the flow: read from the histogram. *)

val loss_rate : t -> float

val thr_scale_mbps : t -> float
(** Running THR_max used for feature normalization. *)
