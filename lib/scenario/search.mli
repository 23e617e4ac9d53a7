(** Black-box worst-case search over the scenario space.

    A seeded random-exploration phase followed by CEM-style refinement
    (elite refit, per-coordinate Gaussian resampling clamped to the box)
    minimizes a policy-goodness objective: the minimizer is the worst
    scenario found for the policy. Candidate vectors, scenario seeds and
    refutation streams are all derived sequentially from one master
    [Prng] {i before} the pool fan-out, so a search is bit-reproducible
    from its seed at every domain count. *)

type objective =
  | Min_utility
      (** minimize {!utility} — utilization discounted by tail queueing
          delay and loss *)
  | Max_p95_delay  (** maximize p95 queueing delay *)
  | Max_violation of Canopy.Property.t * int
      (** maximize the refuted fraction of an [n]-component certificate
          computed at every step ({!Canopy.Certify} counters) *)
  | Min_jain
      (** minimize Jain's fairness index against
          {!Space.n_cross_flows} competing Cubic flows with searched
          arrival times, all on one link with the scenario's
          impairments *)

val objective_name : objective -> string
(** ["utility" | "p95" | "violation" | "jain"]. *)

val objective_of_name : string -> objective
(** Inverse of {!objective_name} with default property parameters for
    ["violation"]. Raises [Failure] on an unknown name. *)

val utility : min_rtt_ms:int -> Canopy.Eval.result -> float
(** [utilization − loss − p95_qdelay/(2·minRTT)]: the scalar
    "goodness" the [Min_utility] objective minimizes, also used to rank
    suite traces in {!suite_worst}. *)

type config = {
  seed : int;
  duration_ms : int;  (** episode length of every candidate evaluation *)
  history : int;  (** feature frames of the evaluated policy *)
  random_candidates : int;  (** exploration-phase evaluations *)
  cem_rounds : int;
  cem_batch : int;  (** evaluations per refinement round *)
  elite_frac : float;  (** fraction of all candidates refit each round *)
}

val default_config : ?seed:int -> unit -> config
(** seed 1, 8 s episodes, history 5, 24 random candidates, 3 CEM rounds
    of 16, elite fraction 0.25. *)

val smoke_config : ?seed:int -> unit -> config
(** Tiny budget for CI: 2 s episodes, 16 random candidates, 2 CEM
    rounds of 10. *)

type candidate = {
  idx : int;  (** global evaluation index (deterministic tie-break) *)
  vector : float array;
  params : Space.params;
  scn_seed : int;  (** the seed {!Space.compile} was called with *)
  score : float;  (** policy goodness; lower = worse for the policy *)
}

type result = {
  worst : candidate;
  evaluated : int;
  round_best : float list;
      (** best (lowest) score after the random phase and after each
          refinement round *)
}

val score_compiled :
  ?refute_rng:Canopy_util.Prng.t ->
  actor:Canopy_nn.Mlp.t ->
  history:int ->
  duration_ms:int ->
  objective ->
  Space.compiled ->
  float
(** Evaluate one compiled scenario under the objective (lower = worse
    for the policy). [refute_rng] feeds [Max_violation]'s counterexample
    search; omit it only for objectives that never refute. *)

val search : config -> actor:Canopy_nn.Mlp.t -> objective -> result
(** Run the full search, fanning candidate evaluations out over the
    ambient pool ([Canopy_util.Pool.default ()]). Bit-reproducible from
    [config.seed]. *)

val suite_worst :
  duration_ms:int ->
  history:int ->
  actor:Canopy_nn.Mlp.t ->
  objective ->
  string * float
(** Score every member of the fixed 22-trace suite under the same
    objective (clean links: no impairments, simultaneous arrivals) and
    return the worst (trace name, score) — the baseline the searched
    worst case must beat. *)
