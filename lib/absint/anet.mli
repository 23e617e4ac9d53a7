(** The verifier IR: an [Mlp] normalized to fused affine stages.

    Every run of affine layers — dense, inference-mode batch norm — is
    collapsed into a single stage [x ↦ W·x + b] with [|W|] precomputed,
    followed by at most one elementwise activation. Extraction happens
    once per parameter generation ({!cached}); the abstract domains then
    propagate through three fused stages instead of eight layers, and the
    batched center–radius transfer ({!output_intervals_rows}) evaluates a
    whole [K]-box workload as two GEMMs per stage:
    [c' = c·Wᵀ + b], [r' = r·|W|ᵀ].

    Walking [Mlp.layers] anywhere else is forbidden by the
    [mlp-layer-walk] lint rule: this builder is the one place the
    batch-norm folding arithmetic may be restated outside [lib/nn]. *)

open Canopy_tensor
open Canopy_nn

type act = Linear | Leaky_relu of float | Tanh

type stage = {
  w : Mat.t;  (** fused weight, [out × in] *)
  b : Vec.t;  (** fused bias, length [out] *)
  abs_w : Mat.t;  (** elementwise [|w|], precomputed at extraction *)
  act : act;  (** activation applied after the affine map *)
}

type t

val of_mlp : Mlp.t -> t
(** Extract the IR from the network's current parameters. The result is
    an immutable snapshot: later parameter updates do not affect it. *)

val cached : Mlp.t -> t
(** {!of_mlp} memoized against the network's physical identity and
    {!Mlp.generation}, so the many certify calls between two gradient
    updates share one extraction. *)

val in_dim : t -> int
val out_dim : t -> int
val stages : t -> stage list
val source_generation : t -> int
(** The {!Mlp.generation} the IR was extracted at. *)

val forward : t -> Vec.t -> Vec.t
(** Concrete evaluation through the fused stages. Agrees with
    [Mlp.forward] on the source network up to reassociation rounding
    (≲1e-9 relative); used by the soundness audit and fusion tests. *)

val propagate : t -> Box.t -> Box.t
(** Abstract image of one box under the network (the K=1 case of the
    batched transfer). Sound for the same reason as [Ibp.propagate];
    bounds agree with it to reassociation rounding. *)

val output_intervals_rows :
  t -> centers:Mat.t -> radii:Mat.t -> Interval.t array
(** Batched scalar-output bound over a workload given as two
    [K × in_dim] matrices: row [k] of [centers] and [radii] is box [k]'s
    center and deviation. Every stage pushes the whole workload through
    two GEMMs ([c' = c·Wᵀ + b], [r' = r·|W|ᵀ]) plus one elementwise
    activation pass; large workloads are split into pool chunks, which
    is bit-neutral. The radius GEMM skips every input column whose
    radius is ±0 in every row (the point dimensions of a certificate):
    with finite [|W|] and radii ≥ 0 each skipped term is ±0, and adding
    ±0 to a chain that starts at +0 changes no bit, so the result equals
    the dense GEMM's exactly. Raises [Invalid_argument] unless
    [out_dim t = 1], both matrices are [K × in_dim t], and every radius
    is non-negative and not NaN (as {!Box.make}). *)

val output_intervals : t -> Box.t array -> Interval.t array
(** {!output_intervals_rows} over an array of boxes, whose centers and
    deviations become the rows: there is one propagation path. Raises
    [Invalid_argument] unless [out_dim t = 1] and every box matches
    [in_dim t]. *)

val output_interval : t -> Box.t -> Interval.t
(** [output_intervals] on a single box. *)

val per_box_flops : t -> int
(** Estimated flops to push one box through the batched transfer —
    derived from the GEMM kernels' own per-row cost model. The one cost
    estimate for IR sweeps: {!output_intervals_rows} plans its chunks with
    it, and [Zonotope] scales it by its noise-symbol budget instead of
    restating the formula. Pure in the IR shape, so any chunking derived
    from it is deterministic. *)
