(** Approximate call graph over {!Lexer} token streams.

    Modules are keyed by file base name capitalized ([pool.ml] →
    [Pool]); definitions are column-0 [let]/[and] bindings and
    [module X] items (named [X]) whose span runs to the next column-0
    structure keyword. References resolve as bare identifiers into the
    same module and as qualified paths whose rightmost known module (after [module X = ...]
    alias expansion) names the module; the components after it name a
    submodule. Calls through function-valued parameters are invisible;
    see DESIGN §11 for the approximation contract. *)

type def = {
  module_ : string;
  name : string;
  path : string;
  line : int;
  start : int;  (** first token index of the body *)
  stop : int;   (** exclusive token index *)
}

type modul = {
  m_name : string;
  m_path : string;
  lexed : Lexer.t;
  defs : def list;
  aliases : (string * string list) list;
      (** local [module X = A.B] aliases: [X] → [\["A"; "B"\]] *)
}

type t = { modules : (string, modul) Hashtbl.t; ordered : modul list }

val is_boundary : Lexer.token -> bool
(** Whether a token starts a new column-0 structure item ([let],
    [type], [module], ...), ending the previous definition's span. *)

val build : (string * Lexer.t) list -> t
(** Build the graph substrate from [(path, lexed)] pairs. *)

val find_module : t -> string -> modul option

val resolve_module : modul -> string -> string
(** Apply [m]'s local module aliases to a module name: the last
    component of the expanded path. *)

val find_def : t -> module_:string -> name:string -> def option

type value_ref = {
  v_module : string;      (** the known module the path resolves to *)
  v_sub : string list;    (** submodule path inside it; [\[\]] at top level *)
  v_name : string;
  v_tok : int;            (** token index of the value name *)
}

val value_refs : t -> modul -> start:int -> stop:int -> value_ref list
(** Candidate value references in the token range [\[start, stop)] of a
    module, in token order: every qualified [A.B.f] whose path resolves,
    every bare lowercase identifier as a candidate of the module itself.
    Candidates are not checked against definitions. *)

val refs_in_span : t -> modul -> start:int -> stop:int -> def list
(** Definitions referenced from the token range [start, stop) of a
    module, deduplicated, in first-reference order. *)
