(** Deterministic source-level lint for the repository's OCaml code.

    Rules (see {!rules} for the messages):
    - [polymorphic-compare]: bare [compare] (NaN-unsound on floats);
    - [float-min-max]: polymorphic [min]/[max] applied to a float literal
      or passed to a float-accumulating fold;
    - [int-of-float]: any [int_of_float] call — unspecified on NaN and
      out-of-range values; reviewed call sites go in the baseline;
    - [obj-magic]: any use of [Obj.magic];
    - [catch-all-exn]: [with _ ->] exception handlers;
    - [array-make-alias]: [Array.make] seeded with a mutable value;
    - [missing-mli]: a module under [lib/] with no interface file;
    - [mlp-layer-walk]: [Mlp.layers] traversal outside [lib/nn] and the
      verifier-IR builder ([anet.ml]) — every other consumer must go
      through [Canopy_absint.Anet] so the batch-norm folding arithmetic
      is never re-forked (grandfathered sites live in the baseline);
    - [non-atomic-write]: bare [open_out] outside [Atomic_file];
    - [raw-domain-spawn]: [Domain.spawn]/[Thread.create] outside the
      pool;
    - [bare-min-max]: any application of bare [min]/[max] under
      [lib/netsim], [lib/cc] or [lib/orca], the per-packet layers, where
      the polymorphic comparison costs a C call per ACK; use
      [Int.min]/[Int.max], or a typed comparison on floats;
    - [float-c-call]: [Float.min], [Float.max], [Float.floor] or
      [Float.ceil] under the same layers and [lib/distill] (the
      distilled tree's interval bound), applied or passed as a value:
      the first two call [caml_signbit] whenever their first comparison
      fails, the last two call libm. Write the one-comparison form
      against a constant bound, compare both ways where signed zeros
      matter, truncate a non-negative value, or waive a per-tick,
      set-up or NaN-fallback site inline.

    All rules run on token-stripped source — the {!Lexer} token stream
    rendered with comments, strings (including [{|...|}] quoted
    strings) and char literals blanked — so matches in comments or
    string literals are never reported. A finding on a line carrying an
    [(* lint-ignore: rule *)] comment is waived. The NaN-unsoundness
    rules ([polymorphic-compare], [float-min-max]) additionally scan
    [bench/] and [test/], where no other rule runs. *)

val rules : (string * string) list
(** Rule identifiers and their one-line messages. *)

val check_source : path:string -> string -> Diagnostic.t list
(** Run the line-scoped rules over one file's contents. [path] selects
    the path-scoped rules and is used for reporting. *)

val check_missing_mli : root:string -> string list -> Diagnostic.t list
(** [missing-mli] over a list of [.ml] paths relative to [root]; only
    files under [lib/] are required to have interfaces. *)

val run : root:string -> unit -> Diagnostic.t list
(** Walk [lib] and [bin] under [root], lint every [.ml] file (and scan
    [bench] and [test] for the NaN rules) and report findings sorted by
    file and line. *)
