(** State–action pair harvesting for distillation.

    Rolls the trained actor through a batched [Fleet_env] episode set (one
    MLP GEMM per decision tick, exactly the fleet serving path) and records
    every (observation row, clamped action) pair the actor produced.
    Config pools with mixed decision intervals (e.g. the trainer's
    stratified links) are grouped into one fleet per interval. *)

val collect :
  actor:Canopy_nn.Mlp.t ->
  Canopy_orca.Fleet_env.config array ->
  Canopy_tensor.Mat.t * float array
(** [collect ~actor cfgs] returns [(xs, ys)]: one row of [xs] per flow per
    decision tick (flows vary fastest) and the matching clamped actions in
    [ys].  The recorded action is post-clamp because that is what serving
    enforces — the tree learns the served policy, not the raw head.
    Every decision tick of every episode is harvested. *)
