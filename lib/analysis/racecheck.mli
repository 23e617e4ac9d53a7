(** Token-level effect/race analysis for [Canopy_util.Pool] parallel
    regions.

    Proves the DESIGN §10 convention syntactically: no function
    reachable from a closure handed to
    [Pool.parallel_for_chunks]/[map]/[map_list] writes an
    inventoried module-level mutable global, unless the global is
    blessed ([Atomic], [Domain.DLS], [Mutex]), the region locks a
    [Mutex], the written index derives from the chunk's [~lo ~hi]
    range, the site carries an
    [(* lint-ignore: shared-mutable-in-parallel *)] waiver, or the
    write is [pool.ml]'s own synchronized state. Approximations are
    documented in DESIGN §11. *)

val rule_name : string
(** ["shared-mutable-in-parallel"] — the {!Diagnostic} rule and the
    inline-waiver name. *)

type report = {
  diags : Diagnostic.t list;
  roots : string list;  (** parallel entry points discovered *)
  reachable : int;      (** top-level defs reachable from the roots *)
  globals : int;        (** inventoried mutable globals *)
  checked_files : int;
}

val check_files : (string * string) list -> report
(** Analyze [(path, contents)] pairs as one program (fixture entry
    point — no filesystem access). *)

val run : root:string -> unit -> report
(** Walk [lib], [bin], [bench] and [test] under [root] and analyze every
    [.ml] file. *)
