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

type rows_cache
(** Cache of the per-sample reference path ({!forward_rows} /
    {!backward_rows}). *)

val dense : rng:Canopy_util.Prng.t -> in_dim:int -> out_dim:int -> t
(** He-initialized fully-connected layer. *)

val batch_norm : ?momentum:float -> ?eps:float -> dim:int -> unit -> t
(** Batch normalization initialized to the identity transform
    (gamma = 1, beta = 0, running mean 0, running variance 1). *)

val leaky_relu : ?slope:float -> unit -> t
(** Default slope 0.01. *)

val tanh : t

val out_dim : in_dim:int -> t -> int
(** Output dimension of the layer given its input dimension. *)

val forward : ?reuse_input:bool -> t -> Mat.t -> Mat.t * cache
(** Batched training forward over a [batch × dim] activation matrix: a
    dense layer is one GEMM ([x·wᵀ] plus a bias broadcast), batch-norm
    and activations are column/element-wise passes. A batch-norm layer
    uses the batch statistics, and folds them into its running
    statistics, when the batch has more than one row; a one-row batch
    has no batch statistics and uses the running ones. With
    [~reuse_input:true] (default false) an element-wise layer may write
    its output into the input's storage instead of allocating — only
    valid when the caller no longer needs the input values, as inside an
    MLP chain where the input is the previous layer's freshly-allocated
    output. Leaky ReLU selects [v] or [slope *. v] branch-free, as
    [v *. [| slope; 1. |].(Bool.to_int (v >= 0.))]: the same bits for
    every value arithmetic produces (±0, ±∞ and quiet NaN, which takes
    the slope arm), in the same pass {!forward_eval} and
    {!forward_eval_into} share. *)

val forward_eval : ?reuse_input:bool -> t -> Mat.t -> Mat.t
(** Cache-free eval forward (batch norm at its running statistics, no
    running-stat update) that skips the per-layer cache — in particular
    the batch-norm xhat matrix only backward consumes. The dense layer
    seeds its GEMM with the bias and the running statistics fold into
    one per-channel affine map (the folded form the
    abstract-interpretation transfers use), so results differ from
    {!forward_eval_into} by rounding. [reuse_input] as in {!forward}. *)

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
    accumulators untouched and only the input gradient is computed. With
    [~reuse_dout:true] (default false) an element-wise layer may write
    the returned gradient into [dout]'s storage — only valid when the
    caller is done with [dout], as inside an MLP backward walk where
    each intermediate gradient is consumed exactly once.

    With [~shards] a dense layer's parameter gradients go to the shard
    layers instead of its own accumulators: each [(lo, hi, shard)]
    accumulates the weight-gradient GEMM and the bias column sums of
    sample rows [lo..hi-1] into [shard]'s [dw]/[db], with the bits of a
    [backward] over a copy of those rows (see [Mat.mat_mul_tn_acc]'s
    [~samples]). Everything else, the input gradient included, runs once
    over the whole batch. Each shard must be a dense layer of this
    layer's shape (a {!grad_shadow}); a batch-norm layer rejects
    [~shards] with [Invalid_argument].

    The leaky-ReLU arm, like {!forward}'s, selects its slope by a
    multiply with a two-entry table instead of a branch, with the bits of
    the [if] form that {!backward_rows} keeps. *)

val forward_rows : t -> Vec.t array -> Vec.t array * rows_cache
(** Per-sample reference forward (the pre-batching implementation, one
    [mat_vec] per sample). Semantically identical to {!forward} — kept as
    an independent implementation for equivalence tests and benchmarks. *)

val backward_rows : t -> rows_cache -> Vec.t array -> Vec.t array
(** Per-sample reference backward; see {!forward_rows}. *)

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
