(* Dead-export analysis over {!Callgraph}: every value a lib/ interface
   exports should be used outside its own module, and reached by a
   program (bin/, bench/, examples/, perfbench/) or at least by a test.
   An export with no outside user is weight every later refactor has to
   carry; an optional argument no outside caller passes is a constant
   wearing a knob. Exports only tests reach are reported, not failed:
   they are the oracles and observation hooks the tests lean on. *)

let unused_rule = "unused-export"
let optional_rule = "unpassed-optional"

let rules =
  [
    ( unused_rule,
      "exported, but no module outside its own uses it; delete it or drop \
       it from the interface" );
    ( optional_rule,
      "optional argument that no call site outside the defining module \
       passes; make it a constant" );
  ]

let program_dirs = [ "bin"; "bench"; "examples"; "perfbench" ]

type role = Lib | Program | Test

let role_of_path path =
  match String.split_on_char '/' path with
  | "lib" :: _ :: _ -> Some Lib
  | "test" :: _ :: _ -> Some Test
  | top :: _ :: _ when List.mem top program_dirs -> Some Program
  | _ -> None

type export = {
  key : string * string list * string;  (* module, submodule path, name *)
  file : string;
  line : int;
  optionals : (string * int) list;  (* optional labels, with their line *)
}

let qualified { key = m, sub, name; _ } = String.concat "." ((m :: sub) @ [ name ])

let kind (ts : Lexer.token array) i =
  if i >= 0 && i < Array.length ts then Some ts.(i).Lexer.kind else None

(* Exports of one .mli: [val]/[external] items at top level or inside
   named [module X : sig ... end] signatures (any other [sig]/[object],
   such as a module type, hides its items). The optional labels are the
   [?label] tokens outside parentheses, so a higher-order parameter's
   own labels do not count. *)
let scan_exports ~path (lexed : Lexer.t) =
  let ts = lexed.Lexer.tokens in
  let n = Array.length ts in
  let m = Inventory.module_of_path path in
  let rec optionals k depth acc =
    match kind ts k with
    | None -> List.rev acc
    | Some (Lexer.Lident
              ( "val" | "external" | "type" | "module" | "exception"
              | "include" | "open" | "end" ))
      when depth = 0 ->
        List.rev acc
    | Some (Lexer.Op ("(" | "[")) -> optionals (k + 1) (depth + 1) acc
    | Some (Lexer.Op (")" | "]")) -> optionals (k + 1) (depth - 1) acc
    | Some (Lexer.Op "?") when depth = 0 -> (
        match kind ts (k + 1) with
        | Some (Lexer.Lident l) ->
            optionals (k + 2) depth ((l, ts.(k).Lexer.line) :: acc)
        | _ -> optionals (k + 1) depth acc)
    | Some _ -> optionals (k + 1) depth acc
  in
  let exports = ref [] and stack = ref [] in
  for i = 0 to n - 1 do
    match ts.(i).Lexer.kind with
    | Lexer.Lident "sig" ->
        let named =
          match (kind ts (i - 3), kind ts (i - 2), kind ts (i - 1)) with
          | Some (Lexer.Lident "module"), Some (Lexer.Uident u), Some (Lexer.Op ":")
            ->
              Some u
          | _ -> None
        in
        stack := named :: !stack
    | Lexer.Lident "object" -> stack := None :: !stack
    | Lexer.Lident "end" -> stack := (match !stack with _ :: r -> r | [] -> [])
    | Lexer.Lident ("val" | "external") when List.for_all Option.is_some !stack
      -> (
        match kind ts (i + 1) with
        | Some (Lexer.Lident name) when not (Lexer.is_keyword name) ->
            let sub = List.rev_map Option.get !stack in
            exports :=
              { key = (m, sub, name); file = path; line = ts.(i).Lexer.line;
                optionals = optionals (i + 2) 0 [] }
              :: !exports
        | _ -> ())
    | _ -> ()
  done;
  List.rev !exports

(* The labels ([~l], [?l]) an application passes, read forward from the
   applied name at token [i] to the end of the application: a closing
   bracket it did not open, or a separator or keyword at its own depth. *)
let passed_labels (ts : Lexer.token array) i =
  let rec go k depth acc =
    match kind ts k with
    | None -> acc
    | Some _ when Callgraph.is_boundary ts.(k) -> acc
    | Some (Lexer.Op ("(" | "[" | "{") | Lexer.Lident "begin") ->
        go (k + 1) (depth + 1) acc
    | Some (Lexer.Op (")" | "]" | "}") | Lexer.Lident "end") ->
        if depth = 0 then acc else go (k + 1) (depth - 1) acc
    | Some (Lexer.Op ("~" | "?")) when depth = 0 -> (
        match kind ts (k + 1) with
        | Some (Lexer.Lident l) -> go (k + 2) depth (l :: acc)
        | _ -> go (k + 1) depth acc)
    | Some
        ( Lexer.Op (";" | ";;" | "," | "|" | "->")
        | Lexer.Lident
            ( "in" | "then" | "else" | "do" | "done" | "with" | "and" | "let"
            | "to" | "downto" | "when" ) )
      when depth = 0 ->
        acc
    | Some _ -> go (k + 1) depth acc
  in
  go (i + 1) 0 []

type report = {
  diags : Diagnostic.t list;
  test_only : string list;
  exports : int;
  checked_files : int;
}

let check_files files =
  let lexed =
    List.filter_map
      (fun (path, src) ->
        Option.map (fun role -> (path, role, Lexer.lex src)) (role_of_path path))
      files
  in
  let is_ml path = Filename.check_suffix path ".ml" in
  (* The graph knows lib/ modules only; every other file is scanned
     against it through a one-file graph of its own (for its aliases). *)
  let cg =
    Callgraph.build
      (List.filter_map
         (fun (path, role, lx) ->
           if role = Lib && is_ml path then Some (path, lx) else None)
         lexed)
  in
  let sources =
    List.filter_map
      (fun (path, role, lx) ->
        if not (is_ml path) then None
        else if role = Lib then
          Option.map
            (fun m -> (role, m))
            (Callgraph.find_module cg (Inventory.module_of_path path))
        else Some (role, List.hd (Callgraph.build [ (path, lx) ]).Callgraph.ordered))
      lexed
  in
  let exports =
    List.concat_map
      (fun (path, role, lx) ->
        if role = Lib && not (is_ml path) then scan_exports ~path lx else [])
      lexed
  in
  let exported = Hashtbl.create 512 in
  List.iter (fun x -> Hashtbl.replace exported x.key ()) exports;
  let key_of (r : Callgraph.value_ref) =
    (r.Callgraph.v_module, r.Callgraph.v_sub, r.Callgraph.v_name)
  in
  let refs = Callgraph.value_refs cg in
  (* Outside uses: the tokens of every use outside the defining module. *)
  let uses = Hashtbl.create 512 in
  List.iter
    (fun (role, (m : Callgraph.modul)) ->
      List.iter
        (fun r ->
          if
            Hashtbl.mem exported (key_of r)
            && (role <> Lib || r.Callgraph.v_module <> m.Callgraph.m_name)
          then
            Hashtbl.add uses (key_of r)
              (m.Callgraph.lexed.Lexer.tokens, r.Callgraph.v_tok))
        (refs m ~start:0 ~stop:max_int))
    sources;
  (* What the programs reach: their files, then every definition (a
     column-0 [let] or a submodule's whole [module X] item) a reached
     reference names, transitively. *)
  let reached = Hashtbl.create 512 and seen = Hashtbl.create 256 in
  let queue = Queue.create () in
  let follow (r : Callgraph.value_ref) =
    Hashtbl.replace reached (key_of r) ();
    let name =
      match r.Callgraph.v_sub with [] -> r.Callgraph.v_name | sub :: _ -> sub
    in
    match Callgraph.find_def cg ~module_:r.Callgraph.v_module ~name with
    | Some d when not (Hashtbl.mem seen (d.Callgraph.module_, name)) ->
        Hashtbl.replace seen (d.Callgraph.module_, name) ();
        Queue.add d queue
    | _ -> ()
  in
  List.iter
    (fun (role, m) ->
      if role = Program then List.iter follow (refs m ~start:0 ~stop:max_int))
    sources;
  while not (Queue.is_empty queue) do
    let d = Queue.take queue in
    Option.iter
      (fun m ->
        List.iter follow (refs m ~start:d.Callgraph.start ~stop:d.Callgraph.stop))
      (Callgraph.find_module cg d.Callgraph.module_)
  done;
  let diag rule x line text =
    Diagnostic.make ~rule ~file:x.file ~line ~text
      (text ^ ": " ^ List.assoc rule rules)
  in
  let diags =
    List.concat_map
      (fun x ->
        match Hashtbl.find_all uses x.key with
        | [] -> [ diag unused_rule x x.line (qualified x) ]
        | sites ->
            let passed =
              List.concat_map (fun (ts, tok) -> passed_labels ts tok) sites
            in
            List.filter_map
              (fun (label, line) ->
                if List.mem label passed then None
                else Some (diag optional_rule x line (qualified x ^ " ?" ^ label)))
              x.optionals)
      exports
  in
  let test_only =
    List.filter_map
      (fun x ->
        if Hashtbl.mem uses x.key && not (Hashtbl.mem reached x.key) then
          Some (qualified x)
        else None)
      exports
  in
  {
    diags = List.sort Diagnostic.compare diags;
    test_only = List.sort String.compare test_only;
    exports = List.length exports;
    checked_files = List.length lexed;
  }

let run ~root () =
  let ml = Sources.find_files ~root ~dirs:("lib" :: "test" :: program_dirs) in
  check_files
    (List.map
       (fun rel -> (rel, Sources.read_file (Filename.concat root rel)))
       (ml ~ext:".ml" @ ml ~ext:".mli"))
