(** Multi-layer perceptron container.

    Composes {!Layer.t} values into the feed-forward networks used for the
    actor (policy) and the twin critics. The paper's actor architecture
    (Section 5) is [FC → BN → LeakyReLU → FC → BN → LeakyReLU → FC] with a
    tanh head mapping to the action range [\[-1,1\]]; {!actor} builds exactly
    that shape. *)

open Canopy_tensor

type t

val create : in_dim:int -> Layer.t list -> t
(** Wrap a layer stack, recording the input dimension. Raises
    [Invalid_argument] if a dense layer's input size is inconsistent with
    the running dimension. *)

val actor :
  rng:Canopy_util.Prng.t -> in_dim:int -> hidden:int -> out_dim:int -> t
(** The paper's actor shape with a tanh output head. *)

val critic :
  rng:Canopy_util.Prng.t -> state_dim:int -> action_dim:int -> hidden:int -> t
(** Q-network over concatenated (state, action), scalar output, no head. *)

val in_dim : t -> int
val out_dim : t -> int
val layers : t -> Layer.t list

val generation : t -> int
(** Parameter-generation counter. Starts at 0 and increments whenever the
    network's mutable state changes: training-mode forwards (batch-norm
    running statistics), {!soft_update} targets, optimizer steps (the
    caller of [Optimizer.step] is responsible for calling
    {!bump_generation}), and checkpoint loads. Derived read-only views —
    most importantly the verifier IR in [Canopy_absint.Anet] — cache
    against [(t, generation t)] and stay valid across the many rollout
    steps between gradient updates. *)

val bump_generation : t -> unit
(** Record that parameters changed through a channel the network cannot
    see itself (e.g. [Optimizer.step] mutating parameter arrays in
    place). Forgetting a bump leaves stale cached IRs; the soundness
    audit and the cache-staleness unit test guard the known channels. *)

val forward_eval_into : dst:Mat.t -> t -> Mat.t -> unit
(** The inference forward (batch norm at its running statistics, no
    running-stat update) over a [batch × in_dim] matrix into a
    caller-owned [batch × out_dim] matrix, with zero steady-state
    allocation: intermediates ping-pong between two slots of a
    per-domain scratch arena ([Domain.DLS]-keyed, warm ≡ cold
    bit-exactly), the last layer writes directly into [dst]. Every
    output row depends only on its own input row (see
    [Layer.forward_eval_into]), so the fleet's one-GEMM-per-tick serving
    path reproduces per-flow {!forward} trajectories exactly. [dst] must
    not alias the input. *)

val forward : t -> Vec.t -> Vec.t
(** Single-sample inference: {!forward_eval_into} on a one-row view of
    the sample ([Mat.row_view], no copy; the sample is only read),
    returning a fresh vector the caller owns. *)

val forward_batch : dst:Mat.t -> t -> Mat.t -> unit
(** Batched eval forward over a [batch × in_dim] matrix (no cache, no
    running-stat update) into a caller-owned [batch × out_dim] matrix:
    one bias-seeded GEMM per dense layer, batch norm folded into one
    affine map per channel ([Layer.forward_eval]), element-wise layers
    applied in place on the chain's intermediates, which live in the
    same per-domain scratch arena as {!forward_eval_into}'s (the input
    matrix itself is never mutated; [dst] must not alias it). Allocates
    nothing once the arena is warm. The TD3 target pass. It differs
    from the inference forward ({!forward}, {!forward_eval_into}) by
    rounding. *)

type workspace
(** The buffers a training pass writes — every layer's output, batch
    norm's [xhat] and statistics, every input gradient — owned by the
    caller and reused across passes, so a steady-state
    {!forward_train}/{!backward} pair allocates no matrix. A workspace
    belongs to no network: {!copy}, {!grad_shadow} and snapshots never
    share or copy one. *)

val workspace : t -> workspace
(** An empty workspace for this net's layer stack; buffers are sized on
    first use, and re-sized (allocated afresh) when the batch changes. *)

type tape
(** Activation record from a batched training-mode pass. It points into
    the pass's workspace, so it is valid until the next {!forward_train}
    with that workspace. *)

val forward_train : ?ws:workspace -> t -> Mat.t -> Mat.t * tape
(** Training-mode forward over a [batch × in_dim] matrix; batch-norm
    layers use batch statistics (batch > 1) and update running stats.
    The output and the tape live in [ws] (default: a fresh workspace),
    which must have been made for a net of this shape. *)

val backward :
  ?input_grad:bool ->
  ?param_grads:bool ->
  ?shards:(int * int * t) array ->
  t ->
  tape ->
  Mat.t ->
  Mat.t
(** Accumulates parameter gradients and returns input gradients, both as
    [batch × dim] matrices; the returned gradient lives in the tape's
    workspace, valid until its next pass. Pass [~input_grad:false] when
    the input
    gradient is not consumed (e.g. a critic fit): the first layer then
    skips its input-gradient GEMM and the return value is unspecified.
    Pass [~param_grads:false] when only the input gradient is consumed
    (e.g. a critic as the actor's gradient conduit): no layer touches
    its gradient accumulators.

    [~shards] splits only the parameter gradients: each
    [(lo, hi, shadow)] overwrites [shadow]'s accumulators (a
    {!grad_shadow} of this net) with the weight-gradient sums of sample
    rows [lo..hi-1], every chain starting at +0, and the net's own stay
    untouched. Every other pass runs
    once over the whole batch. Forwards and input gradients are
    row-local and every GEMM cell is one ascending-k chain, so when the
    shards cut the batch at multiples of 4 rows (the kernels' remainder
    rows then stay in the last shard) each shadow receives the bits a
    forward/backward over a copy of its rows would give it
    ([Layer.backward]); a data-parallel fit then reduces the shadows in
    a tree of its own choosing. *)

val zero_grad : t -> unit
val params : t -> (float array * float array) list
val param_count : t -> int

val copy : t -> t
(** Deep copy, e.g. for target networks. *)

val grad_shadow : t -> t
(** A shadow network sharing this net's parameter arrays but owning
    fresh gradient accumulators. Training forwards/backwards through the
    shadow read the live parameters and accumulate into the shadow's own
    buffers — one shadow per shard gives a data-parallel gradient pass
    whose per-shard results are reduced deterministically afterwards.
    [Optimizer.step] over the shadow's {!params} updates the real
    network (the value arrays are shared); only the gradient arrays
    differ. The shadow has its own generation counter — bump the real
    network after stepping through a shadow. Raises [Invalid_argument]
    on nets with batch norm (their training forward is batch-coupled, so
    shards would not reproduce the full-batch pass). *)

val assign : src:t -> dst:t -> unit
(** Overwrite all of [dst]'s mutable state (parameters and batch-norm
    running statistics) with [src]'s, by copy. Unlike
    [soft_update ~tau:1.] this is a plain blit, so it recovers a [dst]
    whose weights are already NaN/Inf — the divergence-rollback path
    depends on that. Bumps [dst]'s generation. The networks must share a
    shape. *)

val soft_update : tau:float -> src:t -> dst:t -> unit
(** Polyak averaging of all parameters and batch-norm running statistics:
    [dst <- (1-tau)*dst + tau*src]. The networks must share a shape. *)
