(** The box (hyper-interval) abstract domain of Section 3.2.

    An abstract state is a pair [(b_c, b_e)] of a center vector and a
    non-negative deviation vector; dimension [i] concretizes to the
    interval [\[b_c_i − b_e_i, b_c_i + b_e_i\]]. *)

open Canopy_tensor

type t

val make : center:Vec.t -> dev:Vec.t -> t
(** Raises [Invalid_argument] when lengths differ or a deviation is
    negative. The vectors are copied. *)

val of_point : Vec.t -> t
(** Degenerate box (all deviations zero). *)

val of_intervals : Interval.t array -> t
val to_intervals : t -> Interval.t array
val dim : t -> int
val center : t -> Vec.t
(** Fresh copy. *)

val dev : t -> Vec.t
(** Fresh copy. *)

val dimension : t -> int -> Interval.t
(** Interval concretization of one dimension. *)

val with_dimension : t -> int -> Interval.t -> t
(** Functional update of one dimension's interval. *)

val affine : Mat.t -> Vec.t -> t -> t
(** [affine m b box] is the abstract image under [x ↦ m·x + b]:
    center [m·b_c + b], deviation [|m|·b_e] (the linear-map transformer of
    Section 3.2). *)

val diag_affine : scale:Vec.t -> shift:Vec.t -> t -> t
(** Image under the element-wise map [x_i ↦ scale_i·x_i + shift_i]
    (batch-norm in inference mode). *)

val map_monotone : (float -> float) -> t -> t
(** Element-wise image under a non-decreasing scalar function (ReLU,
    LeakyReLU, tanh) using the endpoint formula of Appendix A. *)

val sample : Canopy_util.Prng.t -> t -> Vec.t
(** Uniform sample from the concretization. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Factored box sets}

    [K] boxes that share one point on every column but a few, on which
    each box has its own center and radius: a certificate's component
    boxes are the agent state with its delay columns replaced, so both
    certificate engines take this form (DESIGN.md §8). Dense boxes are
    the case in which every column varies. *)

type set = {
  rows : int;  (** the number of boxes, at least 1 *)
  point : Vec.t;
      (** the boxes' center on each column not in [vary], where their
          radius is +0; the cells of varying columns are not read *)
  vary : int array;  (** the varying columns, strictly ascending *)
  centers : float array;
      (** [rows × n] cells, [n = Array.length vary], row-major: box
          [k]'s center on column [vary.(m)] is [centers.(k·n + m)] *)
  radii : float array;  (** the matching radii, laid out as [centers] *)
}

val check_set : what:string -> dim:int -> set -> unit
(** Raises [Invalid_argument (what ^ ": shape")] unless [rows >= 1],
    [point] has [dim] cells, [vary] is strictly ascending within
    [\[0, dim)] and [centers] and [radii] hold [rows × n] cells each, and
    [Invalid_argument (what ^ ": deviation")] on a negative or NaN radius
    (−0 is a zero radius, as in {!make}). *)

val set_of_boxes : t array -> set
(** The boxes as a set in which every column varies. Raises
    [Invalid_argument] on an empty array or boxes of differing
    dimensions. *)

val of_set : set -> int -> t
(** Box [k] of the set, [0 <= k < rows], as {!make} builds it (and
    rejects a negative or NaN radius). *)
