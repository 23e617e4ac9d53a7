(** Orca's heuristic "power"-style reward (Eqs. 2–3).

    [R = ((THR − ζ·l) / DELAY') / (THR_max / d_min)] where [l] is the
    loss throughput, [DELAY'] forgives RTTs within [β·d_min] of the
    propagation floor, and [THR_max] normalizes by the best throughput
    seen so far on the link. ζ = 5 and β = 1.25, and the reward is
    clipped to [\[-1, 1\]]. *)

type t
(** Stateful: tracks THR_max across a training run. *)

val create : unit -> t
val thr_max_mbps : t -> float

val of_observation : t -> Observation.t -> float
(** Reward for one monitoring interval; updates THR_max. *)
