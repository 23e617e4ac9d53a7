(** Dead-export analysis: which values the [lib/] interfaces export
    and who uses them.

    Built on {!Callgraph}. The programs are every [.ml] file under
    [bin/], [bench/], [examples/] and [perfbench/]; tests are the
    [.ml] files under [test/]. An export is a [val] or [external] in a
    [lib/] [.mli], at top level or inside a [module X : sig ... end]
    submodule signature. Three kinds of finding, all gated through the
    shared baseline like [lint] and [racecheck]:
    - [unused-export]: an export that no file outside its own module
      references (tests included);
    - [unpassed-optional]: an optional argument of an export that no
      call site outside the defining module passes;
    - [test-only-optional]: an optional argument of an export some
      program reaches that outside call sites pass only from [test/].

    The report also lists, without failing, the exports that are used
    outside their module but that no program reaches ({!report.test_only}).

    Approximations (DESIGN §11): references are token-level, so a value
    reached only through a function value, a first-class module or a
    functor, or only inside a local open [M.( ... )], is invisible and
    needs a baseline entry; a bare identifier counts as a reference to
    every same-named value of its module, so a shadowing local keeps a
    value alive; the labels of a call are read up to the end of its
    application, so a label passed to a later call in the same
    expression counts as passed. Diagnostics carry the qualified value
    name (plus [?label]) as their keyed text, so baseline entries
    survive edits to the interface. *)

val unused_rule : string
(** ["unused-export"] *)

val optional_rule : string
(** ["unpassed-optional"] *)

val test_optional_rule : string
(** ["test-only-optional"] *)

val rules : (string * string) list
(** Rule identifiers and their one-line messages. *)

type report = {
  diags : Diagnostic.t list;
  test_only : string list;
      (** exports used outside their module that no program reaches —
          tests, or library code only tests reach — qualified
          ([Mat.Kernel.nt_ocaml]) and sorted *)
  exports : int;
  checked_files : int;
}

val check_files : (string * string) list -> report
(** Analyze [(path, contents)] pairs as one tree (fixture entry point —
    no filesystem access). Paths are relative to the repository root;
    their first component picks the role ([lib], [test], or a program
    directory); files elsewhere are ignored. *)

val run : root:string -> unit -> report
(** Read every [.ml] and [.mli] under [lib], [bin], [bench], [examples],
    [perfbench] and [test] below [root] and analyze them. *)
