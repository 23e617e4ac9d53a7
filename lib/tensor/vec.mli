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

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Element-wise product. *)

val scale : float -> t -> t
val axpy : alpha:float -> x:t -> y:t -> unit
(** [axpy ~alpha ~x ~y] performs [y <- alpha*x + y] in place. *)

val add_into : dst:t -> t -> t -> unit
val sub_into : dst:t -> t -> t -> unit

val dot : t -> t -> float
val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float
val sum : t -> float
val mean : t -> float
val map : (float -> float) -> t -> t
val map_into : dst:t -> (float -> float) -> t -> unit
val concat : t list -> t
val slice : t -> pos:int -> len:int -> t
val max_elt : t -> float
val min_elt : t -> float
val argmax : t -> int

val approx_equal : ?eps:float -> t -> t -> bool
(** Element-wise tolerance comparison; false when dimensions differ. *)

val pp : Format.formatter -> t -> unit
