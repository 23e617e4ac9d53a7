(** Zonotope (affine-forms) abstract domain — the "more complex domains"
    extension sketched in the paper's Section 8.

    A zonotope represents each dimension as an affine expression
    [c_i + Σ_k g_{k,i}·ε_k] over shared noise symbols [ε_k ∈ [-1,1]].
    Because the symbols are shared across dimensions, affine layers
    propagate {e exactly} (no |M| widening as in the box domain), which
    tightens certificates for networks whose layers partially cancel.
    Nonlinear activations use DeepZ-style sound linear relaxations, each
    introducing one fresh noise symbol per dimension. *)

open Canopy_tensor

type t

val of_box : Box.t -> t
(** One noise symbol per non-degenerate input dimension. *)

val of_point : Vec.t -> t
val dim : t -> int
val generators : t -> int
(** Number of live noise symbols. *)

val dimension : t -> int -> Interval.t
(** Interval concretization of one dimension. *)

val concretize : t -> Box.t
(** Tightest enclosing box. *)

val affine : Mat.t -> Vec.t -> t -> t
(** Exact image under [x ↦ M·x + b]. *)

val diag_affine : scale:Vec.t -> shift:Vec.t -> t -> t
(** Exact image under an element-wise affine map (inference batch norm). *)

val leaky_relu : slope:float -> t -> t
(** Sound relaxation; exact on dimensions whose interval does not
    straddle zero. *)

val relu : t -> t

val tanh : t -> t
(** Sound min-slope relaxation (DeepZ). *)

val output_interval : Canopy_nn.Mlp.t -> Box.t -> Interval.t
(** Drop-in replacement for {!Ibp.output_interval}: propagates a zonotope
    and returns its meet with the box-domain result (a reduced product),
    so the answer is sound and never looser than plain IBP. Raises
    [Invalid_argument] for networks with more than one output. *)

val output_intervals_anet : Anet.t -> Box.t array -> Interval.t array
(** Batched {!output_interval} on the IR: the zonotope half runs per box
    (each box owns its noise symbols), the box-domain half of the reduced
    product comes from one {!Anet.output_intervals} call over the whole
    workload. *)
