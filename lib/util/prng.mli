(** Deterministic, splittable pseudo-random number generation.

    All stochastic components in the repository (exploration noise, trace
    generators, weight initialization, workload sampling) draw from values of
    type {!t} so that every experiment is reproducible from a single seed and
    independent components never share a stream. The generator is
    splitmix64, which is small, fast and statistically adequate for
    simulation workloads. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Two
    generators created from the same seed produce identical streams. *)

val split : t -> int -> t
(** [split t idx] derives an independent child generator from [t] and a
    non-negative task index, advancing [t] by exactly one draw. Children
    of the same parent state with distinct indices, and children of
    distinct parent states with any indices, get decorrelated streams —
    this is how parallel regions hand each task its own reproducible
    stream (child [i] is a pure function of the parent state and [i],
    never of scheduling). Raises [Invalid_argument] on a negative index. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays [t]'s future. *)

val state : t -> int64
(** Raw splitmix64 state word, for checkpointing. [of_state (state t)]
    replays exactly the stream [t] would produce. *)

val of_state : int64 -> t
(** Rebuild a generator from a captured {!state} word verbatim (no
    mixing — this is the inverse of {!state}, not a seeding function). *)

val set_state : t -> int64 -> unit
(** Overwrite the state word in place, e.g. when restoring a snapshot
    into a live generator shared by reference. *)

val reseed : t -> salt:int -> unit
(** Deterministic decorrelated jump: move [t] to a fresh stream that is a
    pure function of its current state and [salt]. Distinct salts give
    distinct streams. Used after a divergence rollback so the retried
    segment draws different exploration noise. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val gaussian_scaled : t -> mu:float -> sigma:float -> float
(** Normal deviate with the given mean and standard deviation. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate. Requires [rate > 0]. *)
