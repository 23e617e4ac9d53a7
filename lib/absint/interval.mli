(** Closed real intervals [\[lo, hi\]].

    The scalar building block of the box abstract domain (Section 3.2).
    All transformers here are sound: for any concrete input in the input
    interval, the concrete result lies in the result interval. *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi]. Raises [Invalid_argument] if [lo > hi] or either bound is
    NaN. *)

val of_point : float -> t
(** Degenerate interval [\[x, x\]]. *)

val lo : t -> float
val hi : t -> float
val width : t -> float
val midpoint : t -> float
val radius : t -> float

val contains : t -> float -> bool
val subset : t -> t -> bool
(** [subset a b] is true when [a ⊆ b]. *)

val intersect : t -> t -> t option
val hull : t -> t -> t
(** Smallest interval containing both. *)

val is_point : t -> bool

(* Arithmetic transformers *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val mul : t -> t -> t
(** General interval product (min/max of the four corner products).
    Corner products of a zero endpoint with an infinite one follow the
    zero-annihilation convention (the bound is 0, not NaN), so products
    of half-infinite intervals stay well-formed. [scale] is hardened the
    same way. *)

val div_scalar : t -> float -> t
(** Division by a non-zero scalar. *)

val pow2 : t -> t
(** [2^x], exact (monotone). *)

val tanh : t -> t
val leaky_relu : slope:float -> t -> t
(** Exact for any slope in [\[0,1\]]. *)

val overlap_fraction : target:t -> t -> float
(** The interval distance D of Eq. 7: 0 when disjoint from [target], 1 when
    fully contained, otherwise [|target ∩ out| / |out|]. A point output
    collapses to membership (1 inside, 0 outside). *)

val split : t -> int -> t list
(** [split t n] partitions [t] into [n] equal-width, contiguous
    sub-intervals (the symbolic components of Section 5). Requires
    [n > 0]. *)

val slice : t -> n:int -> int -> t
(** [slice t ~n i] is element [i] of [split t n], computed alone.
    Requires [0 <= i < n]. *)

val sample : Canopy_util.Prng.t -> t -> float
(** Uniform sample from the interval. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
