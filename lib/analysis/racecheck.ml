(* Token-level effect/race analysis for Pool-parallel regions.

   The determinism contract of DESIGN §10 rests on a convention: a
   closure handed to [Canopy_util.Pool] must not write shared mutable
   state except through per-domain [Domain.DLS], [Atomic], a [Mutex],
   or ranges ([~lo ~hi]) no other chunk touches. This pass proves the
   convention syntactically:

   1. {!Inventory} lists every module-level mutable value (the only
      state two closures can share without one creating it);
   2. {!Callgraph} approximates who calls whom;
   3. parallel entry points are every argument of
      [Pool.parallel_for_chunks]/[map]/[map_list] — both
      [(fun ...)] literals and named range kernels;
   4. every function reachable from an entry point is scanned for
      writes ([:=], [<-], [incr]/[decr], stdlib mutator calls) whose
      target resolves to an inventoried global.

   A write is allowed when the global is blessed ([Atomic], [DLS],
   [Mutex]), the enclosing region takes a [Mutex.lock], the written
   index is derived from the chunk's [~lo ~hi] range, the write site
   carries an [(* lint-ignore: shared-mutable-in-parallel *)] waiver,
   or it lives in [pool.ml] itself (the pool's own synchronized state).
   Everything else is a diagnostic.

   Approximations (DESIGN §11): calls through function-valued
   parameters are invisible (e.g. [Eval.run_tasks] applying its task
   closures); nested (non column-0) functions are only checked when
   lexically inside a [(fun ...)] argument; argument spans extend to
   the end of the enclosing expression, so sibling branches of the
   dispatch [if] are conservatively treated as parallel too. *)

let rule_name = "shared-mutable-in-parallel"

let message =
  "write to shared mutable state from a Pool-parallel region breaks \
   determinism and soundness; share through Domain.DLS / Atomic, a \
   disjoint ~lo ~hi range, or a Mutex — or waive with (* lint-ignore: \
   shared-mutable-in-parallel *)"

let default_dirs = [ "lib"; "bin"; "bench"; "test" ]

(* The pool implementation is the one module allowed to touch its own
   synchronized state from worker domains. *)
let pool_internal path = Filename.basename path = "pool.ml"

let pool_entry_fns = [ "parallel_for_chunks"; "map"; "map_list" ]

(* (module, function, position of the mutated argument) *)
let stdlib_mutators =
  [
    ("Hashtbl", "add", 1); ("Hashtbl", "replace", 1);
    ("Hashtbl", "remove", 1); ("Hashtbl", "reset", 1);
    ("Hashtbl", "clear", 1); ("Hashtbl", "filter_map_inplace", 2);
    ("Buffer", "add_char", 1); ("Buffer", "add_string", 1);
    ("Buffer", "add_bytes", 1); ("Buffer", "add_buffer", 1);
    ("Buffer", "add_substring", 1); ("Buffer", "add_subbytes", 1);
    ("Buffer", "clear", 1); ("Buffer", "reset", 1);
    ("Buffer", "truncate", 1);
    ("Queue", "add", 2); ("Queue", "push", 2); ("Queue", "pop", 1);
    ("Queue", "take", 1); ("Queue", "clear", 1);
    ("Stack", "push", 2); ("Stack", "pop", 1); ("Stack", "clear", 1);
    ("Array", "fill", 1); ("Array", "sort", 2);
    ("Array", "unsafe_set", 1); ("Array", "set", 1); ("Array", "blit", 3);
    ("Bytes", "set", 1); ("Bytes", "unsafe_set", 1);
    ("Bytes", "fill", 1); ("Bytes", "blit", 3);
  ]

type region = {
  r_modul : Callgraph.modul;
  r_start : int;  (* token index, inclusive *)
  r_stop : int;   (* token index, exclusive *)
  r_root : string;  (* human-readable origin, for the diagnostic *)
}

type report = {
  diags : Diagnostic.t list;
  roots : string list;       (* parallel entry points found *)
  reachable : int;           (* top-level defs reachable from the roots *)
  globals : int;             (* inventoried mutable globals *)
  checked_files : int;
}

(* --- token helpers ---------------------------------------------------- *)

let tok_kind (m : Callgraph.modul) i = m.lexed.Lexer.tokens.(i).Lexer.kind

(* Bracket depth before each token. *)
let depths (m : Callgraph.modul) =
  let ts = m.lexed.Lexer.tokens in
  let n = Array.length ts in
  let d = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let delta =
      match ts.(i).Lexer.kind with
      | Lexer.Op ("(" | "[" | "{") -> 1
      | Lexer.Op (")" | "]" | "}") -> -1
      | _ -> 0
    in
    d.(i + 1) <- d.(i) + delta
  done;
  d

(* Matching closer for the opener at [i] (depth array from {!depths}). *)
let match_close (m : Callgraph.modul) depth i =
  let n = Array.length m.lexed.Lexer.tokens in
  let target = depth.(i) in
  let j = ref (i + 1) in
  while !j < n && depth.(!j) > target do incr j done;
  !j

(* Matching opener for the closer at [i]: largest [o <= i] with
   [depth.(o) = depth.(i + 1)]. *)
let match_open depth i =
  let target = depth.(i + 1) in
  let o = ref i in
  while !o > 0 && depth.(!o) > target do decr o done;
  !o

(* --- assignment-target resolution ------------------------------------ *)

(* Walk backwards from the last token of an assignment's left-hand side
   and return the access path as [(module qualifier, value name, index
   spans)]: [Mod.g.(i).(j) <- e] gives [(Some "Mod", "g", [(i-span);
   (j-span)])], [t.field <- e] gives [(None, "t", [])]. [None] when the
   head is not a plain (possibly qualified) identifier. *)
let resolve_lhs (m : Callgraph.modul) depth last =
  let ts = m.lexed.Lexer.tokens in
  let index_spans = ref [] in
  let rec back j =
    (* [j] = last token index of the current chain element *)
    if j < 0 then None
    else
      match ts.(j).Lexer.kind with
      | Lexer.Op (")" | "]") ->
          let o = match_open depth j in
          index_spans := (o + 1, j) :: !index_spans;
          if o > 0 && ts.(o - 1).Lexer.kind = Lexer.Op "." then back (o - 2)
          else None  (* parenthesized head expression: unresolvable *)
      | Lexer.Lident _ | Lexer.Uident _ ->
          if j > 0 && ts.(j - 1).Lexer.kind = Lexer.Op "." then back (j - 2)
          else Some j
      | _ -> None
  in
  match back last with
  | None -> None
  | Some head -> (
      (* read the chain forward from [head]: Uidents (dotted) form the
         module path, the first Lident is the value name *)
      match ts.(head).Lexer.kind with
      | Lexer.Lident name -> Some (None, name, !index_spans)
      | Lexer.Uident u ->
          let last_u = ref u and j = ref head in
          let n = Array.length ts in
          let result = ref None in
          while
        !result = None
        && !j + 2 < n
            && ts.(!j + 1).Lexer.kind = Lexer.Op "."
          do
            (match ts.(!j + 2).Lexer.kind with
            | Lexer.Uident v ->
                last_u := v;
                j := !j + 2
            | Lexer.Lident f ->
                result := Some (Some !last_u, f, !index_spans);
                j := n
            | _ -> j := n)
          done;
          !result
      | _ -> None)

(* Forward-parse a simple argument starting at [j]: a parenthesized
   group, or a (possibly qualified, possibly indexed) identifier chain,
   or a literal. Returns the index past the argument. *)
let skip_simple_arg (m : Callgraph.modul) depth j =
  let ts = m.lexed.Lexer.tokens in
  let n = Array.length ts in
  if j >= n then j
  else
    match ts.(j).Lexer.kind with
    | Lexer.Op ("(" | "[" | "{") -> match_close m depth j + 1
    | Lexer.Op ("~" | "?") -> j + 1  (* label marker; caller re-skips *)
    | Lexer.Lident _ | Lexer.Uident _ | Lexer.Int _ | Lexer.Float _
    | Lexer.String _ | Lexer.Char _ ->
        let k = ref (j + 1) in
        let continue_ = ref true in
        while !continue_ && !k + 1 < n do
          if ts.(!k).Lexer.kind = Lexer.Op "." then
            match ts.(!k + 1).Lexer.kind with
            | Lexer.Lident _ | Lexer.Uident _ -> k := !k + 2
            | Lexer.Op ("(" | "[") -> k := match_close m depth (!k + 1) + 1
            | _ -> continue_ := false
          else continue_ := false
        done;
        !k
    | _ -> j + 1

(* Forward-resolve a (possibly qualified) identifier at [j]:
   [Some (module qualifier, name)]. *)
let resolve_fwd (m : Callgraph.modul) j =
  let ts = m.lexed.Lexer.tokens in
  let n = Array.length ts in
  if j >= n then None
  else
    match ts.(j).Lexer.kind with
    | Lexer.Lident name when not (Lexer.is_keyword name) ->
        Some (None, name)
    | Lexer.Uident u ->
        let last_u = ref u and k = ref j and result = ref None in
        while
          !result = None
          && !k + 2 < n
          && ts.(!k + 1).Lexer.kind = Lexer.Op "."
        do
          (match ts.(!k + 2).Lexer.kind with
          | Lexer.Uident v ->
              last_u := v;
              k := !k + 2
          | Lexer.Lident f ->
              result := Some (Some !last_u, f);
              k := n
          | _ -> k := n)
        done;
        !result
    | _ -> None

(* --- range-disjointness ----------------------------------------------- *)

(* Identifiers that carry the chunk's [~lo ~hi] range within a region:
   [lo], [hi] themselves plus every [for v = e1 to/downto e2] loop
   variable whose bounds mention a range ident. An indexed write whose
   index expression uses one of these is chunk-private by the §10
   convention. *)
let range_idents (m : Callgraph.modul) ~start ~stop =
  let ts = m.lexed.Lexer.tokens in
  let stop = min stop (Array.length ts) in
  let idents = ref [ "lo"; "hi" ] in
  (* iterate to a fixpoint so [for j = i to ...] nested under
     [for i = lo to ...] is recognized too *)
  let changed = ref true in
  while !changed do
    changed := false;
    let i = ref start in
    while !i + 3 < stop do
      (match
         (tok_kind m !i, tok_kind m (!i + 1), tok_kind m (!i + 2))
       with
      | Lexer.Lident "for", Lexer.Lident v, Lexer.Op "=" ->
          (* scan the bounds up to [do] for a known range ident *)
          let j = ref (!i + 3) and uses_range = ref false in
          while
            !j < stop
            && tok_kind m !j <> Lexer.Lident "do"
            && !j - !i < 40
          do
            (match tok_kind m !j with
            | Lexer.Lident x when List.mem x !idents -> uses_range := true
            | _ -> ());
            incr j
          done;
          if !uses_range && not (List.mem v !idents) then begin
            idents := v :: !idents;
            changed := true
          end
      | _ -> ());
      incr i
    done
  done;
  !idents

let span_mentions_ident (m : Callgraph.modul) ~start ~stop idents =
  let stop = min stop (Array.length m.lexed.Lexer.tokens) in
  let found = ref false in
  for i = start to stop - 1 do
    match tok_kind m i with
    | Lexer.Lident x when List.mem x idents -> found := true
    | _ -> ()
  done;
  !found

(* --- the analysis ----------------------------------------------------- *)

type program = {
  cg : Callgraph.t;
  globals : (string * string, Inventory.entry) Hashtbl.t;
  global_count : int;
  field_count : int;
  lines_of : (string, string array) Hashtbl.t;
  ignores_of : (string, (int * string) list) Hashtbl.t;
}

let load_program files =
  let lexed = List.map (fun (path, src) -> (path, Lexer.lex src)) files in
  let cg = Callgraph.build lexed in
  let globals = Hashtbl.create 64 in
  let global_count = ref 0 and field_count = ref 0 in
  List.iter
    (fun (path, lx) ->
      let inv = Inventory.scan ~path lx in
      List.iter
        (fun (e : Inventory.entry) ->
          incr global_count;
          Hashtbl.replace globals (e.module_, e.name) e)
        inv.Inventory.globals;
      field_count := !field_count + List.length inv.Inventory.mutable_fields)
    lexed;
  let lines_of = Hashtbl.create 64 in
  let ignores_of = Hashtbl.create 64 in
  List.iter
    (fun (path, src) ->
      Hashtbl.replace lines_of path
        (Array.of_list (String.split_on_char '\n' src)))
    files;
  List.iter
    (fun (path, lx) ->
      Hashtbl.replace ignores_of path
        (Sources.ignores_of_comments lx.Lexer.comments))
    lexed;
  {
    cg;
    globals;
    global_count = !global_count;
    field_count = !field_count;
    lines_of;
    ignores_of;
  }

(* Parallel entry points of one module: for each
   [<Pool-resolving module>.<entry fn>] call, the [(fun ...)] literal
   spans and the named definitions referenced in the argument span. The
   span ends at the first token that leaves the call's expression:
   depth below the call site, a statement [;], or one of the keywords
   closing the enclosing expression. *)
let find_roots p (m : Callgraph.modul) depth =
  let ts = m.lexed.Lexer.tokens in
  let n = Array.length ts in
  let closers = [ "in"; "else"; "then"; "end"; "done"; "do"; "with" ] in
  let regions = ref [] and seeds = ref [] and root_descs = ref [] in
  for i = 0 to n - 3 do
    match (ts.(i).Lexer.kind, ts.(i + 1).Lexer.kind, ts.(i + 2).Lexer.kind)
    with
    (* Matches both [Pool.map] and fully-qualified [Canopy_util.Pool.map]
       — [i] lands on the [Pool] component either way. *)
    | Lexer.Uident u, Lexer.Op ".", Lexer.Lident fn
      when Callgraph.resolve_module m u = "Pool" && List.mem fn pool_entry_fns
      ->
        let d0 = depth.(i) in
        let stop = ref (i + 3) in
        let continue_ = ref true in
        while !continue_ && !stop < n do
          let t = ts.(!stop) in
          if depth.(!stop) < d0 then continue_ := false
          else if Callgraph.is_boundary t then continue_ := false
          else
            match t.Lexer.kind with
            | Lexer.Op (";" | ";;") when depth.(!stop) = d0 ->
                continue_ := false
            | Lexer.Lident k when List.mem k closers && depth.(!stop) <= d0
              ->
                continue_ := false
            | _ -> incr stop
        done;
        let desc =
          Printf.sprintf "Pool.%s at %s:%d" fn m.m_path ts.(i).Lexer.line
        in
        root_descs := desc :: !root_descs;
        (* (fun ...) literal arguments become regions of their own *)
        let j = ref (i + 3) in
        while !j < !stop - 1 do
          (match (ts.(!j).Lexer.kind, ts.(!j + 1).Lexer.kind) with
          | Lexer.Op "(", Lexer.Lident ("fun" | "function") ->
              let close = match_close m depth !j in
              regions :=
                {
                  r_modul = m;
                  r_start = !j + 1;
                  r_stop = min close !stop;
                  r_root = desc;
                }
                :: !regions
          | _ -> ());
          incr j
        done;
        (* named definitions referenced anywhere in the argument span
           seed the reachability walk *)
        List.iter
          (fun d -> seeds := (d, desc) :: !seeds)
          (Callgraph.refs_in_span p.cg m ~start:(i + 3) ~stop:!stop)
    | _ -> ()
  done;
  (List.rev !regions, List.rev !seeds, List.rev !root_descs)

let check_region p acc (r : region) =
  if pool_internal r.r_modul.Callgraph.m_path then acc
  else begin
    let m = r.r_modul in
    let ts = m.lexed.Lexer.tokens in
    let depth = depths m in
    let stop = min r.r_stop (Array.length ts) in
    (* a region that takes the pool's locking discipline is exempt *)
    let guarded =
      let found = ref false in
      for i = r.r_start to stop - 3 do
        match (tok_kind m i, tok_kind m (i + 1), tok_kind m (i + 2)) with
        | Lexer.Uident "Mutex", Lexer.Op ".", Lexer.Lident "lock" ->
            found := true
        | _ -> ()
      done;
      !found
    in
    if guarded then acc
    else begin
      let ranged = range_idents m ~start:r.r_start ~stop in
      let lookup (mq, name) =
        let module_ =
          match mq with
          | Some u -> Callgraph.resolve_module m u
          | None -> m.m_name
        in
        Hashtbl.find_opt p.globals (module_, name)
      in
      let ignores =
        Option.value ~default:[]
          (Hashtbl.find_opt p.ignores_of m.m_path)
      in
      let waived line =
        List.exists
          (fun (l, r') -> l = line && (r' = "*" || r' = rule_name))
          ignores
      in
      let diag_at acc line (e : Inventory.entry) =
        if waived line then acc
        else begin
          let text =
            match Hashtbl.find_opt p.lines_of m.m_path with
            | Some lines when line - 1 < Array.length lines ->
                lines.(line - 1)
            | _ -> ""
          in
          let msg =
            Printf.sprintf "%s global `%s.%s` (%s:%d) written from %s — %s"
              (Inventory.kind_name e.kind)
              e.module_ e.name e.path e.line r.r_root message
          in
          Diagnostic.make ~rule:rule_name ~file:m.m_path ~line ~text msg
          :: acc
        end
      in
      let flag acc last_lhs site_line =
        match resolve_lhs m depth last_lhs with
        | None -> acc
        | Some (mq, name, index_spans) -> (
            match lookup (mq, name) with
            | Some e when not (Inventory.blessed e.kind) ->
                (* chunk-private by construction: every index is
                   derived from the ~lo ~hi range *)
                let range_disjoint =
                  index_spans <> []
                  && List.for_all
                       (fun (s, e') ->
                         span_mentions_ident m ~start:s ~stop:(e' + 1)
                           ranged)
                       index_spans
                in
                if range_disjoint then acc else diag_at acc site_line e
            | _ -> acc)
      in
      let acc = ref acc in
      for i = r.r_start to stop - 1 do
        match tok_kind m i with
        | Lexer.Op ":=" | Lexer.Op "<-" when i > r.r_start ->
            acc := flag !acc (i - 1) ts.(i).Lexer.line
        | Lexer.Lident ("incr" | "decr")
          when not (i > 0 && ts.(i - 1).Lexer.kind = Lexer.Op ".") -> (
            let j =
              if i + 1 < stop && tok_kind m (i + 1) = Lexer.Op "(" then i + 2
              else i + 1
            in
            match resolve_fwd m j with
            | Some key -> (
                match lookup key with
                | Some e when not (Inventory.blessed e.kind) ->
                    acc := diag_at !acc ts.(i).Lexer.line e
                | _ -> ())
            | None -> ())
        | Lexer.Uident u
          when (not (i > 0 && ts.(i - 1).Lexer.kind = Lexer.Op "."))
               && i + 2 < stop
               && ts.(i + 1).Lexer.kind = Lexer.Op "." -> (
            match ts.(i + 2).Lexer.kind with
            | Lexer.Lident fn -> (
                match
                  List.assoc_opt fn
                    (List.filter_map
                       (fun (m', f, pos) ->
                         if m' = u then Some (f, pos) else None)
                       stdlib_mutators)
                with
                | None -> ()
                | Some pos ->
                    (* skip to the mutated argument, then resolve it *)
                    let j = ref (i + 3) in
                    let argn = ref 1 in
                    (* labels don't count as arguments *)
                    let rec advance () =
                      if !j < stop && !argn < pos then begin
                        let k = skip_simple_arg m depth !j in
                        (match tok_kind m !j with
                        | Lexer.Op ("~" | "?") -> ()
                        | _ -> incr argn);
                        j := k;
                        advance ()
                      end
                    in
                    advance ();
                    (match resolve_fwd m !j with
                    | Some key -> (
                        match lookup key with
                        | Some e when not (Inventory.blessed e.kind) ->
                            (* writes at a ~lo ~hi-derived offset are
                               chunk-private (Array.fill od (lo * c)) *)
                            let arg_end = skip_simple_arg m depth !j in
                            let next_arg_end =
                              skip_simple_arg m depth arg_end
                            in
                            let ranged_offset =
                              (u = "Array" || u = "Bytes")
                              && span_mentions_ident m ~start:arg_end
                                   ~stop:next_arg_end ranged
                            in
                            if not ranged_offset then
                              acc := diag_at !acc ts.(i).Lexer.line e
                        | _ -> ())
                    | None -> ()))
            | _ -> ())
        | _ -> ()
      done;
      !acc
    end
  end

let check_files files =
  let p = load_program files in
  let all_regions = ref [] and all_seeds = ref [] and all_roots = ref [] in
  List.iter
    (fun (m : Callgraph.modul) ->
      if not (pool_internal m.Callgraph.m_path) then begin
        let depth = depths m in
        let regions, seeds, roots = find_roots p m depth in
        all_regions := !all_regions @ regions;
        all_seeds := !all_seeds @ seeds;
        all_roots := !all_roots @ roots
      end)
    p.cg.Callgraph.ordered;
  (* reachability: named seeds plus everything the (fun ...) regions
     reference, transitively over top-level definitions *)
  let visited : (string * string, string) Hashtbl.t = Hashtbl.create 64 in
  let queue = Queue.create () in
  let enqueue (d : Callgraph.def) root =
    let key = (d.Callgraph.module_, d.Callgraph.name) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.replace visited key root;
      Queue.add (d, root) queue
    end
  in
  List.iter (fun (d, root) -> enqueue d root) !all_seeds;
  List.iter
    (fun r ->
      List.iter
        (fun d -> enqueue d r.r_root)
        (Callgraph.refs_in_span p.cg r.r_modul ~start:r.r_start
           ~stop:r.r_stop))
    !all_regions;
  let def_regions = ref [] in
  while not (Queue.is_empty queue) do
    let (d : Callgraph.def), root = Queue.take queue in
    match Callgraph.find_module p.cg d.Callgraph.module_ with
    | None -> ()
    | Some dm ->
        let region =
          {
            r_modul = dm;
            r_start = d.Callgraph.start;
            r_stop = d.Callgraph.stop;
            r_root =
              Printf.sprintf "%s (via %s.%s)" root d.Callgraph.module_
                d.Callgraph.name;
          }
        in
        def_regions := region :: !def_regions;
        List.iter
          (fun d' -> enqueue d' root)
          (Callgraph.refs_in_span p.cg dm ~start:d.Callgraph.start
             ~stop:d.Callgraph.stop)
  done;
  let diags =
    List.fold_left (check_region p) [] (!all_regions @ List.rev !def_regions)
  in
  (* dedupe: the same write site can be reachable from several roots *)
  let seen = Hashtbl.create 16 in
  let diags =
    List.filter
      (fun (d : Diagnostic.t) ->
        let key = (d.Diagnostic.file, d.Diagnostic.line, d.Diagnostic.text) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      (List.sort Diagnostic.compare diags)
  in
  {
    diags;
    roots = !all_roots;
    reachable = Hashtbl.length visited;
    globals = p.global_count;
    checked_files = List.length files;
  }

let run ~root () =
  let files = Sources.find_files ~root ~dirs:default_dirs ~ext:".ml" in
  check_files
    (List.map
       (fun rel -> (rel, Sources.read_file (Filename.concat root rel)))
       files)
