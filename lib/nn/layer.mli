(** Neural-network layers with explicit forward/backward passes.

    Implements exactly the pieces the paper's controller needs
    (Section 5): fully-connected layers, batch normalization, LeakyReLU
    and a tanh output head for the bounded action space
    [a ∈ \[-1,1\]]. Layers are mutable records carrying both parameters and
    their gradient accumulators so that an optimizer can update them in
    place. *)

open Canopy_tensor

type dense = {
  w : Mat.t;  (** [out_dim × in_dim] weight matrix *)
  b : Vec.t;  (** bias, length [out_dim] *)
  dw : Mat.t;  (** gradient accumulator for [w] *)
  db : Vec.t;  (** gradient accumulator for [b] *)
}

type batch_norm = {
  gamma : Vec.t;
  beta : Vec.t;
  dgamma : Vec.t;
  dbeta : Vec.t;
  running_mean : Vec.t;
  running_var : Vec.t;
  momentum : float;  (** update rate for the running statistics *)
  eps : float;
}

type t =
  | Dense of dense
  | Batch_norm of batch_norm
  | Leaky_relu of float  (** negative-side slope *)
  | Tanh

type cache
(** Opaque per-layer activation cache produced by {!forward} and consumed
    by {!backward}. *)

val dense : rng:Canopy_util.Prng.t -> in_dim:int -> out_dim:int -> t
(** He-initialized fully-connected layer. *)

val batch_norm : dim:int -> t
(** Batch normalization initialized to the identity transform
    (gamma = 1, beta = 0, running mean 0, running variance 1), with
    momentum 0.1 and eps 1e-5. A checkpoint may carry other values in
    the record. *)

val leaky_relu : t
(** Slope 0.01; a checkpoint may carry another positive slope. *)

val tanh : t

val out_dim : in_dim:int -> t -> int
(** Output dimension of the layer given its input dimension. *)

type buffers
(** The matrices and vectors one layer's training pass writes: its
    output, batch norm's [xhat] and statistics, and its input gradient.
    Kept by the caller across passes ([Mlp.workspace]); a matrix is
    allocated the first time a shape is asked for and reused while the
    shape holds. A cache from {!forward} points into them, so it is
    valid until the next {!forward} with the same buffers. *)

val buffers : unit -> buffers
(** Empty buffers: nothing is allocated until a pass asks. *)

val forward : ?reuse_input:bool -> ?ws:buffers -> t -> Mat.t -> Mat.t * cache
(** Batched training forward over a [batch × dim] activation matrix: a
    dense layer is one GEMM ([x·wᵀ] plus a bias broadcast), batch-norm
    and activations are column/element-wise passes ([Elementwise]). A
    batch-norm layer uses the batch statistics, and folds them into its
    running statistics, when the batch has more than one row; a one-row
    batch has no batch statistics and uses the running ones. The output
    and cache live in [ws] (default: fresh buffers). With
    [~reuse_input:true] (default false) an element-wise layer writes
    its output into the input's storage instead — only valid when the
    caller no longer needs the input values, as inside an MLP chain
    where the input is the previous layer's output. Leaky ReLU selects
    [v] or [slope *. v] branch-free ([Elementwise.leaky]): the same bits
    for every value arithmetic produces (±0, ±∞ and quiet NaN, which
    takes the slope arm), in the same pass {!forward_eval} and
    {!forward_eval_into} share. *)

val forward_eval : dst:Mat.t -> t -> Mat.t -> unit
(** Cache-free eval forward (batch norm at its running statistics, no
    running-stat update) into a caller-owned [batch × out_dim] matrix,
    without allocating. The dense layer seeds its GEMM with the bias and
    the running statistics fold into one per-channel affine map (the
    folded form the abstract-interpretation transfers use), so results
    differ from {!forward_eval_into} by rounding. [dst] may be the input
    for an element-wise layer (batch norm, activations), never for a
    dense one. *)

val forward_eval_into : dst:Mat.t -> t -> Mat.t -> unit
(** The inference forward: eval mode into a caller-owned
    [batch × out_dim] matrix without allocating, as a plain GEMM plus a
    bias broadcast and the unfolded batch-norm expression at the running
    statistics. Every output row depends only on its own input row, so
    a row gets the same bits whether it runs alone ([Mlp.forward]) or
    in a fleet's batched decision tick. [dst] must not alias the
    input. *)

val backward :
  ?input_grad:bool ->
  ?param_grads:bool ->
  ?reuse_dout:bool ->
  ?shards:(int * int * t) array ->
  ?ws:buffers ->
  t ->
  cache ->
  Mat.t ->
  Mat.t
(** [backward layer cache dout] accumulates parameter gradients into the
    layer and returns the gradient with respect to the layer input, both
    as [batch × dim] matrices. Must be called with the cache of the
    matching {!forward} invocation. With [~input_grad:false] a dense
    layer skips the input-gradient GEMM and returns an unspecified
    matrix — only valid when the caller discards the result. With
    [~param_grads:false] (default true) the layer leaves its gradient
    accumulators untouched and only the input gradient is computed. The
    returned gradient lives in [ws] (default: fresh buffers). With
    [~reuse_dout:true] (default false) an element-wise layer writes
    the returned gradient into [dout]'s storage instead — only valid
    when the caller is done with [dout], as inside an MLP backward walk
    where each intermediate gradient is consumed exactly once.

    With [~shards] a dense layer's parameter gradients go to the shard
    layers instead of its own accumulators: each [(lo, hi, shard)]
    overwrites [shard]'s [dw]/[db] with the weight-gradient GEMM and the
    bias column sums of sample rows [lo..hi-1], with the bits of zeroing
    them and running a [backward] over a copy of those rows (see
    [Mat.mat_mul_tn]'s [~samples]). Everything else, the input gradient
    included, runs once over the whole batch. Each shard must be a dense
    layer of this layer's shape (a {!grad_shadow}); a batch-norm layer
    rejects [~shards] with [Invalid_argument].

    The leaky-ReLU arm, like {!forward}'s, selects its slope by a
    multiply instead of a branch ([Elementwise.leaky_backward]), with
    the slope where the cached output's sign bit is set: the bits of
    the per-sample oracle's [if] on the input's sign bit
    ([test/oracle.ml]). *)

val zero_grad : t -> unit
val params : t -> (float array * float array) list
(** [(value, gradient)] pairs viewed as flat arrays, in a stable order. *)

val copy : t -> t
(** Deep copy (used to instantiate target networks). *)

val grad_shadow : t -> t
(** A view sharing the layer's parameter (and batch-norm running-stat)
    arrays but carrying fresh zeroed gradient accumulators. Forward and
    backward passes through the shadow read the live parameters and
    accumulate into the shadow's own [dw]/[db] — the per-shard write
    targets of a data-parallel gradient computation. Only meaningful for
    nets without batch statistics; see [Mlp.grad_shadow]. *)
