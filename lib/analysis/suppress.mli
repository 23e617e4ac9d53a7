(** Checked-in analysis baselines.

    A baseline file lists accepted findings, one per line:
    [<rule> <key> <file>:<line> <source text>]. Only the first two fields
    are significant; the rest is commentary for reviewers. [<key>] is
    {!Diagnostic.key}, which hashes the rule, file and trimmed line text
    — not the line number — so entries survive unrelated edits. Lines
    starting with [#] are comments.

    One baseline file is shared by the [lint] and [racecheck] passes;
    each pass owns the entries carrying its rule names and updates only
    those ({!update}), so regenerating one pass's section never drops
    the other's. *)

type t

type entry = {
  e_rule : string;
  e_key : string;   (** {!Diagnostic.key} hash *)
  e_rest : string;  (** informational: [file:line source-text] *)
}

val load : string -> t
(** Loading a missing file yields an empty baseline. *)

val load_entries : string -> entry list
(** The raw entries, in file order. *)

val mem : t -> Diagnostic.t -> bool

val filter : t -> Diagnostic.t list -> Diagnostic.t list * int
(** [filter t diags] is [(fresh, suppressed_count)]. *)

val stale :
  entry list -> rules:(string -> bool) -> Diagnostic.t list -> entry list
(** Entries owned by [rules] that no current diagnostic matches —
    baseline drift that must be cleaned up, not accumulated. *)

val update : string -> rules:(string -> bool) -> Diagnostic.t list -> unit
(** Replace the [rules]-owned section of the baseline with [diags],
    preserving entries owned by other passes (atomic write). *)

val save : string -> Diagnostic.t list -> unit
(** Write a baseline accepting exactly [diags] (atomic write). *)
