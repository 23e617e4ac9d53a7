(** The 22-trace evaluation suite of Section 6.1: 18 synthetic plus 4
    LTE-like traces. *)

val all : ?duration_ms:int -> unit -> Trace.t list

val adversarial : dir:string -> unit -> Trace.t list
(** Archived adversarial scenarios (the worst cases found by the
    scenario search engine, rendered as Mahimahi [*.trace] files next
    to their records, e.g. under [_artifacts/scenarios/]), sorted by
    file name; [[]] when the directory does not exist. Their ["adv-"]
    name prefix puts them in the {!Adversarial} category. *)

type category = Synthetic | Real | Adversarial

val category_of : Trace.t -> category
(** Classify a suite trace by its name prefix. *)

val pp_category : Format.formatter -> category -> unit
