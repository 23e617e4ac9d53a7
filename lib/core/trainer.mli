(** Certificate-in-the-loop training (Sections 4.4–4.5 and 5).

    Wraps the TD3 learner in a loop that, at every environment step,
    builds a certificate for the current policy (Section 4.3) and mixes
    the resulting verifier reward into the raw Orca reward per Eq. 11:
    [r = (1−λ)·R + λ·R_verifier]. λ = 0 recovers plain Orca training
    (the verifier still runs so its reward can be reported, as in the
    paper's Fig. 14 comparison).

    Training runs against a pool of stable-bandwidth links sampled from
    the Table-2 ranges, stepping the environments round-robin — the
    sequential stand-in for the paper's 256 distributed actors. *)

type config = {
  seed : int;
  lambda : float;  (** verifier-reward weight, in [0,1] *)
  property : Property.t;
  engine : Certify.engine;  (** abstract-interpretation engine for the
      in-loop certificates (default [Batched]) *)
  n_components : int;  (** certificate slices during training (N) *)
  history : int;  (** k observation frames per state *)
  hidden : int;  (** actor/critic hidden width *)
  total_steps : int;  (** environment interactions *)
  updates_per_step : int;  (** TD3 gradient steps per interaction *)
  envs : Canopy_orca.Agent_env.config list;  (** training pool *)
  log_every : int;  (** steps per reported epoch *)
}

val default_config :
  ?seed:int ->
  ?lambda:float ->
  ?property:Property.t ->
  ?n_components:int ->
  ?total_steps:int ->
  envs:Canopy_orca.Agent_env.config list ->
  unit ->
  config
(** λ = 0.25, performance property, batched engine, N = 5, history 5,
    hidden 64, 1 update/step, 4000 steps, log every 100. *)

val env_pool :
  ?n:int ->
  ?bw_range_mbps:float * float ->
  ?rtt_range_ms:int * int ->
  ?duration_ms:int ->
  seed:int ->
  unit ->
  Canopy_orca.Agent_env.config list
(** Stable-bandwidth training links per Table 2: [n] (default 8) links
    with bandwidth and minRTT sampled by stratified jitter from the given
    ranges (defaults 6–192 Mbps, 10–200 ms), buffers of 2 BDP and
    [Agent_env.default_config]'s history of 5 frames. Env [i]
    draws both parameters from the [i]-th of [n] equal strata using a
    PRNG derived from [(seed, i)], so coverage is even but different
    seeds give different pools; the seed appears in each trace name. *)

type epoch = {
  epoch : int;
  steps : int;  (** cumulative environment steps *)
  raw_reward : float;  (** mean raw reward over the epoch *)
  verifier_reward : float;  (** mean R_verifier over the epoch *)
  combined_reward : float;  (** mean Eq. 11 reward *)
  fcc : float;  (** mean fraction of certified components *)
  rollbacks : int;
      (** cumulative divergence rollbacks up to this epoch (0 when the
          watchdog is off) *)
}

val train :
  ?on_epoch:(epoch -> unit) ->
  ?snapshot_every:int ->
  ?snapshot_path:string ->
  ?resume:string ->
  ?fault_hook:(step:int -> Canopy_rl.Td3.t -> unit) ->
  config ->
  Canopy_rl.Td3.t * epoch list
(** Run the full loop; returns the trained agent and the per-epoch
    training curve (Fig. 14). The freshly initialized actor is validated
    with {!Canopy_analysis.Netcheck} before the first step; raises
    [Invalid_argument] if it fails.

    [snapshot_every] (steps; must be positive) turns on the crash-safety
    machinery: an in-memory snapshot of the complete training state is
    captured at every boundary, and a divergence watchdog probes
    parameter finiteness after every update (full netcheck at
    boundaries). On a fault it rolls the agent, accumulators and curve
    back to the last good snapshot, decorrelates the exploration stream
    ({!Canopy_rl.Td3.reseed}), rebuilds the env pool and continues,
    counting the event in {!type-epoch.rollbacks}; more than 10
    consecutive faults without reaching the next boundary raise
    [Failure]. With the watchdog on, the env pool is re-derived from
    config at each boundary so that an interrupted-and-resumed run is
    bit-identical to an uninterrupted one; a given [config] therefore
    has one deterministic trajectory per [snapshot_every] setting (and
    the watchdog-off trajectory is unchanged from previous releases).

    [snapshot_path] additionally persists each boundary snapshot as an
    atomic [canopy-train v2] checkpoint. [resume] restores one:
    training continues from its recorded step with identical results to
    a run that was never interrupted ([on_epoch] re-fires only for
    epochs after the resume point — and may re-fire for an epoch
    re-crossed after a rollback). Raises [Failure] if the file is
    corrupt or its config fingerprint does not match [config]. Both
    options require [snapshot_every].

    [fault_hook] runs after the gradient updates of every step (fault
    injection for tests and the faultcheck harness). *)

val save_actor : Canopy_rl.Td3.t -> string -> unit

val load_actor : string -> Canopy_nn.Mlp.t
(** Load an actor from either a [canopy-mlp v1] checkpoint or the actor
    section of a [canopy-train v2] snapshot, and validate it with
    {!Canopy_analysis.Netcheck} (shape chaining, parameter finiteness,
    batch-norm statistics) before returning it. Raises [Failure] on a
    corrupt file and [Invalid_argument] on a checkpoint that fails
    validation. *)

val save_curve : epoch list -> string -> unit
(** Write a training curve as CSV (epoch, steps, raw, verifier, combined,
    fcc, rollbacks), atomically. *)

val load_curve : string -> epoch list
(** Strict parser: raises [Failure] naming the file and line on any
    malformed row, so a torn curve file cannot masquerade as a short
    run. *)

val cache_hit : cache_dir:string -> tag:string -> config -> bool
(** Whether {!load_or_train} would reload [cache_dir/tag] for this
    config rather than train. *)

val load_or_train :
  cache_dir:string ->
  tag:string ->
  config ->
  Canopy_nn.Mlp.t * epoch list
(** Train once and cache the resulting actor, training curve and config
    fingerprint under [cache_dir/tag] (directories created
    recursively). A later call reloads the actor and curve only when all
    three files exist and the fingerprint matches [cfg]'s; otherwise it
    retrains and overwrites them, so a stale cache never stands in for
    a different config. *)
