(* Approximate call graph over token streams. Modules are keyed by their
   file base name capitalized ([lib/util/pool.ml] → [Pool]) — the same
   name by which sibling modules and, after a library prefix, the rest
   of the tree refer to them. Definitions are column-0 [let]/[and]
   bindings and [module X] items (named [X]); a definition's body runs
   to the next column-0 structure keyword. References are resolved two
   ways: a bare lowercase identifier matching a definition of the same
   module, and a module-qualified path, with a local
   [module X = ...] alias expanded, whose rightmost known
   module names the module and whose later components name a submodule
   ([Mat.Kernel.nt] is [Mat]'s [Kernel.nt]). Calls through
   function-valued parameters are invisible — the analysis is
   deliberately an over/under-approximation documented in DESIGN §11. *)

type def = {
  module_ : string;
  name : string;
  path : string;
  line : int;
  start : int;  (* first token index of the body (after the name) *)
  stop : int;   (* exclusive token index *)
}

type modul = {
  m_name : string;
  m_path : string;
  lexed : Lexer.t;
  defs : def list;
  aliases : (string * string list) list;  (* local alias → dotted target *)
}

type t = { modules : (string, modul) Hashtbl.t; ordered : modul list }

(* Column-0 keywords that terminate the previous definition's span. *)
let boundary_kws =
  [ "let"; "and"; "type"; "module"; "open"; "include"; "exception";
    "val"; "external"; "class" ]

let is_boundary (tok : Lexer.token) =
  tok.Lexer.col = 0
  &&
  match tok.Lexer.kind with
  | Lexer.Lident k -> List.mem k boundary_kws
  | Lexer.Op ";;" -> true
  | _ -> false

let scan_defs ~path (lexed : Lexer.t) =
  let ts = lexed.Lexer.tokens in
  let n = Array.length ts in
  let module_ = Inventory.module_of_path path in
  let defs = ref [] in
  let next_boundary i =
    let j = ref (i + 1) in
    while !j < n && not (is_boundary ts.(!j)) do incr j done;
    !j
  in
  let i = ref 0 in
  while !i < n do
    (match ts.(!i).Lexer.kind with
    | Lexer.Lident (("let" | "and" | "module") as kw) when ts.(!i).Lexer.col = 0
      ->
        let j =
          if
            !i + 1 < n
            && ts.(!i + 1).Lexer.kind = Lexer.Lident "rec"
          then !i + 2
          else !i + 1
        in
        (match if j < n then Some ts.(j) else None with
        | Some ({ Lexer.kind = Lexer.Lident name | Lexer.Uident name; _ } as nt)
          when (match nt.Lexer.kind with
               | Lexer.Uident _ -> kw = "module"
               | _ -> kw <> "module" && not (Lexer.is_keyword name)) ->
            let stop = next_boundary !i in
            defs :=
              {
                module_;
                name;
                path;
                line = nt.Lexer.line;
                start = j + 1;
                stop;
              }
              :: !defs;
            i := stop
        | _ -> incr i)
    | _ -> incr i)
  done;
  List.rev !defs

(* [module X = A.B.C] aliases, at any nesting ([let module] included),
   mapped to their dotted target path. *)
let scan_aliases (lexed : Lexer.t) =
  let ts = lexed.Lexer.tokens in
  let n = Array.length ts in
  let aliases = ref [] in
  for i = 0 to n - 4 do
    match
      ( ts.(i).Lexer.kind, ts.(i + 1).Lexer.kind, ts.(i + 2).Lexer.kind,
        ts.(i + 3).Lexer.kind )
    with
    | Lexer.Lident "module", Lexer.Uident alias, Lexer.Op "=",
      Lexer.Uident first ->
        let path = ref [ first ] and j = ref (i + 4) in
        while
          !j + 1 < n
          && ts.(!j).Lexer.kind = Lexer.Op "."
          &&
          match ts.(!j + 1).Lexer.kind with
          | Lexer.Uident u ->
              path := u :: !path;
              true
          | _ -> false
        do
          j := !j + 2
        done;
        aliases := (alias, List.rev !path) :: !aliases
    | _ -> ()
  done;
  List.rev !aliases

let build files =
  let ordered =
    List.map
      (fun (path, lexed) ->
        {
          m_name = Inventory.module_of_path path;
          m_path = path;
          lexed;
          defs = scan_defs ~path lexed;
          aliases = scan_aliases lexed;
        })
      files
  in
  let modules = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace modules m.m_name m) ordered;
  { modules; ordered }

let find_module t name = Hashtbl.find_opt t.modules name

(* A module path with its first component's local alias expanded
   ([module K = Mat.Kernel] makes [K.nt] read [Mat.Kernel.nt]): only the
   first component of a path can name a local alias. *)
let expand m = function
  | first :: rest -> (
      match List.assoc_opt first m.aliases with
      | Some target -> target @ rest
      | None -> first :: rest)
  | [] -> []

let resolve_module m name =
  match List.rev (expand m [ name ]) with last :: _ -> last | [] -> name

let find_def t ~module_ ~name =
  match find_module t module_ with
  | None -> None
  | Some m -> List.find_opt (fun d -> d.name = name) m.defs

type value_ref = {
  v_module : string;
  v_sub : string list;
  v_name : string;
  v_tok : int;
}

(* Split an alias-expanded module path at its rightmost component that
   names a known module: [Canopy_tensor.Mat.Kernel] is module [Mat],
   submodule path [Kernel]. *)
let split_path t m path =
  let path = expand m path in
  let rec rightmost i best = function
    | [] -> best
    | u :: rest ->
        rightmost (i + 1) (if Hashtbl.mem t.modules u then Some i else best) rest
  in
  Option.map
    (fun j -> (List.nth path j, List.filteri (fun i _ -> i > j) path))
    (rightmost 0 None path)

(* Candidate value references in tokens [start, stop) of [m], in token
   order. A qualified [A.B.f] is split by {!split_path}; a bare
   lowercase identifier (not after a [.], so no record field) is a
   candidate of [m] itself. Candidates are not checked against any
   definition: callers look them up in their own tables. *)
let value_refs t m ~start ~stop =
  let ts = m.lexed.Lexer.tokens in
  let n = Array.length ts in
  let stop = min stop n in
  let acc = ref [] in
  let add (v_module, v_sub) v_name v_tok =
    acc := { v_module; v_sub; v_name; v_tok } :: !acc
  in
  let prev_is_dot i = i > 0 && ts.(i - 1).Lexer.kind = Lexer.Op "." in
  let i = ref (max 0 start) in
  while !i < stop do
    (match ts.(!i).Lexer.kind with
    | Lexer.Uident u when not (prev_is_dot !i) ->
        (* walk the dotted chain: U (. U)* then optionally [. lident] *)
        let path = ref [ u ] and k = ref !i in
        let continue_ = ref true in
        while !continue_ do
          continue_ := false;
          if !k + 2 < n && ts.(!k + 1).Lexer.kind = Lexer.Op "." then
            match ts.(!k + 2).Lexer.kind with
            | Lexer.Uident v ->
                path := v :: !path;
                k := !k + 2;
                continue_ := true
            | Lexer.Lident f when not (Lexer.is_keyword f) ->
                Option.iter
                  (fun target -> add target f (!k + 2))
                  (split_path t m (List.rev !path));
                k := !k + 2
            | _ -> ()
        done;
        i := !k + 1
    | Lexer.Lident f when (not (Lexer.is_keyword f)) && not (prev_is_dot !i)
      ->
        add (m.m_name, []) f !i;
        incr i
    | _ -> incr i)
  done;
  List.rev !acc

(* All definitions referenced from tokens [start, stop) of module [m]:
   the {!value_refs} candidates that name a top-level definition. *)
let refs_in_span t m ~start ~stop =
  let resolve r =
    if r.v_sub <> [] then None
    else if r.v_module = m.m_name then
      List.find_opt (fun d -> d.name = r.v_name) m.defs
    else find_def t ~module_:r.v_module ~name:r.v_name
  in
  List.fold_left
    (fun acc r ->
      match resolve r with
      | Some d
        when not
               (List.exists
                  (fun d' -> d'.module_ = d.module_ && d'.name = d.name)
                  acc) ->
          d :: acc
      | _ -> acc)
    [] (value_refs t m ~start ~stop)
  |> List.rev
