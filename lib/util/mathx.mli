(** Small numeric helpers shared across the repository. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] limits [x] to [\[lo, hi\]]. Requires [lo <= hi]. *)

val lerp : float -> float -> float -> float
(** [lerp a b t] is [a + t*(b-a)]. *)

val approx_equal : ?eps:float -> float -> float -> bool
(** Absolute-and-relative tolerance comparison (default [eps = 1e-9]). *)

val is_finite : float -> bool

val log2 : float -> float

val pow2 : float -> float
(** [pow2 x] is [2^x]. *)

val sign : float -> float
(** [-1.], [0.] or [1.]. *)

val sum : float array -> float
val fsum_list : float list -> float
