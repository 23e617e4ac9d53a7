(** The parameterized scenario space the adversarial engine searches.

    A scenario is a point in a fixed-dimension box: bandwidth step and
    fade schedules, delay jitter, non-congestive loss, packet
    reordering, bursty cross-traffic, and competing-flow arrival times.
    {!compile} renders a point deterministically (all stochastic
    details drawn from [Prng.split] child streams of the scenario seed)
    into a bandwidth {!Canopy_trace.Trace.t}, an
    {!Canopy_netsim.Env.impairments} record and the arrival offsets of
    the competing flows — everything the evaluation objectives in
    {!Search} need. The same [(params, seed)] pair always compiles to
    the same scenario, bit for bit, which is what makes archived worst
    cases replayable. *)

type params = {
  base_mbps : float;  (** baseline link capacity *)
  step_ratio : float;  (** low/high ratio of the bandwidth step schedule *)
  step_period_ms : float;  (** half-period of the step schedule *)
  fade_depth : float;  (** capacity fraction removed at the fade bottom *)
  fade_period_ms : float;  (** period of the sinusoidal fade *)
  min_rtt_ms : float;  (** two-way propagation delay *)
  jitter_ms : float;  (** max extra ACK return delay *)
  loss : float;  (** non-congestive loss probability *)
  reorder_prob : float;  (** packet reordering probability *)
  reorder_ms : float;  (** hold-back applied to reordered feedback *)
  cross_frac : float;  (** capacity fraction stolen during cross bursts *)
  cross_on_ms : float;  (** cross-traffic burst duration *)
  cross_off_ms : float;  (** gap between cross-traffic bursts *)
  arrival_spread_ms : float;
      (** window over which competing flows' start times are drawn *)
}

type dim = {
  dim_name : string;
  lo : float;
  hi : float;  (** inclusive box bounds of this coordinate *)
}

val dims : dim array
(** The box, in the fixed coordinate order used by {!of_vector} /
    {!to_vector} and by the corpus file format. *)

val n_dims : int

val of_vector : float array -> params
(** Decode a search vector, clamping every coordinate into its box
    bounds. Raises [Invalid_argument] on a wrong-length vector or a NaN
    coordinate. *)

val to_vector : params -> float array

val clamp : float array -> float array
(** Fresh vector with every coordinate clamped into its bounds (an
    infinity goes to the bound on its side). Raises [Invalid_argument]
    on a wrong-length vector or a NaN coordinate, which has no place in
    the box. *)

val sample : Canopy_util.Prng.t -> float array
(** Uniform draw from the box. *)

val round_pos : float -> int
(** Nearest non-negative integer — the single float→int conversion the
    compiler uses for millisecond knobs (inputs are clamped to finite
    box bounds first). *)

type compiled = {
  trace : Canopy_trace.Trace.t;
  impairments : Canopy_netsim.Env.impairments;
  c_min_rtt_ms : int;
  arrivals : int array;
      (** start times of the {!n_cross_flows} competing flows *)
}

val n_cross_flows : int
(** Competing TCP flows in the coexistence mix (2). *)

val compile : ?name:string -> duration_ms:int -> seed:int -> params -> compiled
(** Render the scenario. The trace samples capacity every 20 ms from
    the step × fade × cross-burst schedules plus a small per-sample
    multiplicative wobble; the wobble and the competing-flow arrivals
    are drawn from independent [Prng.split] children of [seed], so the
    result is a pure function of [(params, duration_ms, seed)]. The
    default [name] is ["adv-<seed>"], putting compiled traces in the
    suite's adversarial category. *)

val pp_params : Format.formatter -> params -> unit
