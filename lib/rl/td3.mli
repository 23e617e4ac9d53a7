(** Twin Delayed Deep Deterministic policy gradient (TD3, Fujimoto et
    al.) — the learning algorithm underneath Orca and therefore Canopy
    (Section 5).

    Deterministic continuous-action actor with twin critics, target
    networks updated by Polyak averaging, target-policy smoothing noise,
    and delayed policy updates. Actions live in [\[-1, 1\]^action_dim]
    (tanh actor head). *)

open Canopy_nn

type config = {
  state_dim : int;
  action_dim : int;
  hidden : int;  (** hidden width of actor and critics *)
  gamma : float;  (** discount *)
  tau : float;  (** target-network soft-update rate *)
  actor_lr : float;
  critic_lr : float;
  policy_noise : float;  (** target-policy smoothing std *)
  noise_clip : float;
  policy_delay : int;  (** critic updates per actor update *)
  exploration_noise : float;  (** behaviour-policy Gaussian std *)
  batch_size : int;
  buffer_capacity : int;
  warmup : int;  (** transitions collected before updates start *)
}

val default_config : state_dim:int -> action_dim:int -> config
(** Orca-flavoured defaults: hidden 64, gamma 0.99, tau 0.005, lrs 1e-3 /
    1e-3, policy noise 0.2 clipped at 0.5, delay 2, exploration 0.1,
    batch 64, buffer 50k, warmup 256. *)

type t

val create : rng:Canopy_util.Prng.t -> config -> t

val actor : t -> Mlp.t
(** The live policy network — what the verifier certifies. *)

val select_action : ?explore:bool -> t -> float array -> float array
(** Deterministic policy output, plus clipped Gaussian exploration noise
    when [explore] is true (default false). *)

val observe : t -> Replay_buffer.transition -> unit
(** Record a transition; cheap, no learning. *)

val update : t -> unit
(** One TD3 gradient step (both critics; actor and targets every
    [policy_delay] calls) on batched GEMM passes. No-op until [warmup]
    transitions have been observed. Its bits do not depend on the domain
    count. It agrees to rounding with the per-sample test oracle
    ([test/oracle.ml]), which draws the same minibatch and noise: the
    target pass seeds each GEMM cell with the bias, and a critic fit
    sums its weight gradients per 16-row shard and reduces the shards
    through a tree, where the oracle sums every sample in one chain. *)

val q_values : t -> state:float array -> action:float array -> float * float
(** [(Q1, Q2)] of a (state, action) pair under the live critics, eval
    mode. Diagnostic accessor, e.g. for checking bootstrap semantics. *)

val updates_done : t -> int
val buffer_size : t -> int

(** {2 Snapshot / restore}

    The complete mutable training state of an agent, captured by value:
    restoring a snapshot and continuing replays bit-for-bit the run that
    would have happened without the interruption (same minibatches, same
    noise draws, same weights). *)

type snapshot = {
  nets : (string * Mlp.t) list;
      (** deep copies, keyed ["actor"], ["actor_target"], ["critic1"],
          ["critic2"], ["critic1_target"], ["critic2_target"] *)
  moments : (string * Optimizer.snapshot) list;
      (** keyed ["opt_actor"], ["opt_critic1"], ["opt_critic2"] *)
  transitions : Replay_buffer.transition array;
      (** replay contents in storage order (see {!Replay_buffer.iter}) *)
  cursor : int;  (** replay write cursor *)
  capacity : int;  (** replay capacity, validated on restore *)
  rng_state : int64;  (** exploration/minibatch PRNG state *)
  update_count : int;  (** gradient steps taken (drives policy delay) *)
}

val net_names : string list
(** The six network keys in canonical serialization order. *)

val snapshot : t -> snapshot
(** Capture the agent's full mutable state. Networks and optimizer
    moments are deep-copied; replay transitions are shared (they are
    immutable once observed). *)

val restore : t -> snapshot -> unit
(** Overwrite the agent's state with a snapshot, in place — existing
    references to [actor t] remain valid. A blit rather than an
    interpolation, so it recovers weights that have gone NaN/Inf.
    Raises [Invalid_argument] on shape/capacity mismatch or a snapshot
    missing a section. *)

val reseed : t -> salt:int -> unit
(** Decorrelate the agent's PRNG stream (see {!Canopy_util.Prng.reseed});
    used after a divergence rollback so the retried segment explores
    differently instead of replaying the faulting trajectory. *)

val finite : t -> bool
(** Cheap divergence probe: [false] iff some learned parameter of some
    network is NaN or infinite (one summing pass per parameter array;
    a non-finite value poisons its sum). Batch-norm running statistics
    are not probed — the full [Netcheck] at snapshot boundaries covers
    them. *)
