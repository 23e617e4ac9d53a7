(** Dense float vectors.

    Thin, allocation-conscious wrappers over [float array] used by the
    neural-network stack and the abstract interpreter. Unless stated
    otherwise, operations allocate a fresh result; the [_into] variants
    write into a caller-provided destination for hot loops. *)

type t = float array

val create : int -> t
(** Zero vector of the given length. *)

val init : int -> (int -> float) -> t
val copy : t -> t
val dim : t -> int
val fill : t -> float -> unit

val mul : t -> t -> t
(** Element-wise product. *)

val axpy : alpha:float -> x:t -> y:t -> unit
(** [axpy ~alpha ~x ~y] performs [y <- alpha*x + y] in place. *)

val dot : t -> t -> float
val map_into : dst:t -> (float -> float) -> t -> unit

val approx_equal : ?eps:float -> t -> t -> bool
(** Element-wise tolerance comparison; false when dimensions differ. *)

val pp : Format.formatter -> t -> unit
