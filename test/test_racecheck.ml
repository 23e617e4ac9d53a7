(* Tests for the token lexer, the mutable-state inventory, the
   approximate call graph, and the racecheck pass built on top of them.
   Fixture snippets live in string literals (invisible to the repo-wide
   passes, which analyze token streams) or under test/fixtures/ (a
   directory Sources skips). The e2e test at the bottom runs both
   baseline-gated passes over the real tree and asserts the committed
   baseline is exact: no fresh findings, no stale entries. *)

open Canopy_analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Lexer *)

let lex s = (Lexer.lex s).Lexer.tokens

let idents s =
  Array.to_list (lex s)
  |> List.filter_map (fun (t : Lexer.token) ->
         match t.Lexer.kind with
         | Lexer.Lident n | Lexer.Uident n -> Some n
         | _ -> None)

let strings s =
  Array.to_list (lex s)
  |> List.filter_map (fun (t : Lexer.token) ->
         match t.Lexer.kind with Lexer.String b -> Some b | _ -> None)

let test_lexer_strings_and_comments () =
  let src = "let x = \"a (* not a comment *) b\" (* c \"not code\" *)\n" in
  let lexed = Lexer.lex src in
  Alcotest.(check (list string))
    "string body kept whole"
    [ "a (* not a comment *) b" ]
    (strings src);
  check_int "one comment" 1 (List.length lexed.Lexer.comments);
  check_string "comment body trimmed" "c \"not code\""
    (snd (List.hd lexed.Lexer.comments));
  check_bool "no ident leaked from text" false
    (List.mem "comment" (idents src))

let test_lexer_nested_comments () =
  let src = "(* outer (* inner *) tail *) let y = compare\n" in
  check_bool "nested comment closed at outer level" true
    (idents src = [ "let"; "y"; "compare" ])

let test_lexer_char_vs_type_variable () =
  let src = "let f (x : 'a) = if x = 'a' then 'b' else x\n" in
  let chars =
    Array.to_list (lex src)
    |> List.filter_map (fun (t : Lexer.token) ->
           match t.Lexer.kind with Lexer.Char b -> Some b | _ -> None)
  in
  Alcotest.(check (list string)) "char literals only" [ "a"; "b" ] chars

let test_lexer_quoted_strings () =
  Alcotest.(check (list string))
    "basic quoted string"
    [ {|raw "body" \ unescaped|} ]
    (strings "let s = {|raw \"body\" \\ unescaped|}\n");
  Alcotest.(check (list string))
    "tagged quoted string"
    [ "can contain |} inside" ]
    (strings "let s = {x|can contain |} inside|x}\n")

let test_lexer_positions () =
  let src = "let a = 1\nlet bb = \"s\"\n" in
  let second_let =
    Array.to_list (lex src)
    |> List.find (fun (t : Lexer.token) ->
           t.Lexer.kind = Lexer.Lident "let" && t.Lexer.line = 2)
  in
  check_int "col of line-2 let" 0 second_let.Lexer.col;
  let s =
    Array.to_list (lex src)
    |> List.find (fun (t : Lexer.token) ->
           match t.Lexer.kind with Lexer.String _ -> true | _ -> false)
  in
  check_int "string literal line" 2 s.Lexer.line

(* ------------------------------------------------------------------ *)
(* Inventory *)

let inventory src = Inventory.scan ~path:"lib/demo/demo.ml" (Lexer.lex src)

let test_inventory_classification () =
  let inv =
    inventory
      "let total = ref 0\n\
       let tbl = Hashtbl.create 16\n\
       let hits = Atomic.make 0\n\
       let key = Domain.DLS.new_key (fun () -> ref 0)\n\
       let lock = Mutex.create ()\n\
       let f x = ref x\n\
       let g = fun x -> ref x\n"
  in
  let kind name =
    (List.find (fun (e : Inventory.entry) -> e.Inventory.name = name)
       inv.Inventory.globals)
      .Inventory.kind
  in
  check_int "five globals (parameterized lets excluded)" 5
    (List.length inv.Inventory.globals);
  check_bool "ref classified" true (kind "total" = Inventory.Ref);
  check_bool "hashtbl classified" true (kind "tbl" = Inventory.Hashtbl);
  check_bool "atomic blessed" true (Inventory.blessed (kind "hits"));
  check_bool "dls blessed" true (Inventory.blessed (kind "key"));
  check_bool "mutex blessed" true (Inventory.blessed (kind "lock"));
  check_bool "plain ref not blessed" false (Inventory.blessed (kind "total"))

let test_inventory_mutable_fields () =
  let inv =
    inventory "type t = { mutable count : int; name : string }\nlet z = 1\n"
  in
  check_int "one mutable field" 1 (List.length inv.Inventory.mutable_fields);
  let _, field, _ = List.hd inv.Inventory.mutable_fields in
  check_string "field name" "count" field

let test_inventory_module_of_path () =
  check_string "capitalized basename" "Pool"
    (Inventory.module_of_path "lib/util/pool.ml")

(* ------------------------------------------------------------------ *)
(* Callgraph *)

let build_graph files =
  Callgraph.build (List.map (fun (p, s) -> (p, Lexer.lex s)) files)

let test_callgraph_refs () =
  let cg =
    build_graph
      [
        ("lib/a/alpha.ml", "let helper x = x + 1\nlet unused y = y\n");
        ( "lib/b/beta.ml",
          "module Al = Canopy_a.Alpha\n\
           let local z = z * 2\n\
           let entry v = local (Al.helper (Alpha.helper v))\n" );
      ]
  in
  let beta =
    match Callgraph.find_module cg "Beta" with
    | Some m -> m
    | None -> Alcotest.fail "Beta module missing"
  in
  let entry =
    match Callgraph.find_def cg ~module_:"Beta" ~name:"entry" with
    | Some d -> d
    | None -> Alcotest.fail "entry def missing"
  in
  let refs =
    Callgraph.refs_in_span cg beta ~start:entry.Callgraph.start
      ~stop:entry.Callgraph.stop
    |> List.map (fun (d : Callgraph.def) ->
           d.Callgraph.module_ ^ "." ^ d.Callgraph.name)
    |> List.sort String.compare
  in
  Alcotest.(check (list string))
    "bare, aliased and qualified refs resolve"
    [ "Alpha.helper"; "Beta.local" ]
    refs;
  check_bool "unused def not referenced" false
    (List.mem "Alpha.unused" refs)

(* ------------------------------------------------------------------ *)
(* Racecheck on inline fixtures *)

let race files = (Racecheck.check_files files).Racecheck.diags

let one_file src = race [ ("lib/demo/demo.ml", src) ]

let test_race_reachable_global_write () =
  let diags =
    one_file
      "let total = ref 0\n\
       let bump n = total := !total + n\n\
       let run pool xs =\n\
      \  Pool.parallel_for_chunks pool ~chunk:64 (Array.length xs)\n\
      \    (fun ~lo ~hi ->\n\
      \      for i = lo to hi - 1 do\n\
      \        bump xs.(i)\n\
      \      done)\n"
  in
  check_int "one finding" 1 (List.length diags);
  let d = List.hd diags in
  check_string "rule" Racecheck.rule_name d.Diagnostic.rule;
  check_int "write line" 2 d.Diagnostic.line;
  check_bool "message names the global" true
    (let rec contains i =
       i + 5 <= String.length d.Diagnostic.message
       && (String.sub d.Diagnostic.message i 5 = "total" || contains (i + 1))
     in
     contains 0)

let test_race_dls_and_atomic_blessed () =
  let diags =
    one_file
      "let key = Domain.DLS.new_key (fun () -> ref 0)\n\
       let hits = Atomic.make 0\n\
       let bump n =\n\
      \  let cell = Domain.DLS.get key in\n\
      \  cell := !cell + n;\n\
      \  Atomic.incr hits\n\
       let run pool n =\n\
      \  Pool.parallel_for_chunks pool ~chunk:64 n (fun ~lo ~hi ->\n\
      \      bump (hi - lo))\n"
  in
  check_int "DLS and Atomic writes accepted" 0 (List.length diags)

let test_race_mutex_guard () =
  let diags =
    one_file
      "let lock = Mutex.create ()\n\
       let total = ref 0\n\
       let run pool n =\n\
      \  Pool.parallel_for_chunks pool ~chunk:64 n (fun ~lo ~hi ->\n\
      \      Mutex.lock lock;\n\
      \      total := !total + (hi - lo);\n\
      \      Mutex.unlock lock)\n"
  in
  check_int "mutex-guarded region accepted" 0 (List.length diags)

let test_race_range_disjoint () =
  let diags =
    one_file
      "let out = Array.make 1024 0.\n\
       let run pool n =\n\
      \  Pool.parallel_for_chunks pool ~chunk:64 n (fun ~lo ~hi ->\n\
      \      for i = lo to hi - 1 do\n\
      \        out.(i) <- float_of_int i\n\
      \      done)\n"
  in
  check_int "range-indexed write accepted" 0 (List.length diags)

let test_race_local_state_clean () =
  let diags =
    one_file
      "let run pool xs =\n\
      \  let acc = Array.make (Array.length xs) 0. in\n\
      \  Pool.parallel_for_chunks pool ~chunk:64 (Array.length xs)\n\
      \    (fun ~lo ~hi ->\n\
      \      let scratch = ref 0. in\n\
      \      for i = lo to hi - 1 do\n\
      \        scratch := !scratch +. xs.(i);\n\
      \        acc.(i) <- !scratch\n\
      \      done)\n"
  in
  check_int "locals and parameters never flagged" 0 (List.length diags)

let test_race_waiver () =
  let diags =
    one_file
      "let total = ref 0\n\
       (* lint-ignore: shared-mutable-in-parallel *)\n\
       let bump n = total := !total + n \
       (* lint-ignore: shared-mutable-in-parallel *)\n\
       let run pool n =\n\
      \  Pool.parallel_for_chunks pool ~chunk:64 n (fun ~lo ~hi ->\n\
      \      bump (hi - lo))\n"
  in
  check_int "inline waiver accepted" 0 (List.length diags)

let test_race_sequential_write_not_flagged () =
  let diags =
    one_file
      "let total = ref 0\n\
       let bump n = total := !total + n\n\
       let run pool n =\n\
      \  Pool.parallel_for_chunks pool ~chunk:64 n (fun ~lo ~hi ->\n\
      \      ignore (hi - lo));\n\
      \  bump n\n"
  in
  check_int "write after the parallel call is sequential" 0
    (List.length diags)

(* ------------------------------------------------------------------ *)
(* Racecheck on the committed fixture pair *)

let fixture_path name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "fixtures") name

let test_race_seeded_fixture_pair () =
  let load name =
    let p = fixture_path name in
    (p, Sources.read_file p)
  in
  let racy = race [ load "racy_stats.ml" ] in
  check_int "seeded bug flagged" 1 (List.length racy);
  check_string "rule" Racecheck.rule_name (List.hd racy).Diagnostic.rule;
  let fixed = race [ load "dls_stats.ml" ] in
  check_int "DLS twin accepted" 0 (List.length fixed)

(* ------------------------------------------------------------------ *)
(* End-to-end: the committed baseline is exact for both passes *)

let repo_root () =
  let rec up dir =
    if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lint.baseline")
    then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.fail "repo root not found from cwd"
      else up parent
  in
  up (Sys.getcwd ())

let test_e2e_baseline_exact () =
  let root = repo_root () in
  let baseline_path = Filename.concat root "lint.baseline" in
  let diags =
    Lint.run ~root () @ (Racecheck.run ~root ()).Racecheck.diags
  in
  let fresh, _ = Suppress.filter (Suppress.load baseline_path) diags in
  List.iter
    (fun d -> Format.eprintf "fresh: %a@." Diagnostic.pp d)
    fresh;
  check_int "no findings outside the baseline" 0 (List.length fresh);
  let owned rule =
    List.mem_assoc rule Lint.rules || rule = Racecheck.rule_name
  in
  let stale =
    Suppress.stale (Suppress.load_entries baseline_path) ~rules:owned diags
  in
  List.iter
    (fun (e : Suppress.entry) ->
      Format.eprintf "stale: %s %s@." e.Suppress.e_rule e.Suppress.e_rest)
    stale;
  check_int "no stale baseline entries" 0 (List.length stale)

(* The per-domain scratch arenas of this PR must land in the inventory
   as [Domain.DLS] globals — blessed by construction, so they need no
   racecheck baseline waiver. Scanning the real files (not fixtures)
   pins both the classification and the "clean, not baselined" state:
   if a refactor demotes one to a plain ref, this fails before the
   e2e baseline test starts reporting fresh findings. *)
let test_scratch_arenas_blessed () =
  let root = repo_root () in
  let arenas =
    [
      ("lib/tensor/mat.ml", "scratch_key");
      ("lib/absint/anet.ml", "scratch_key");
      ("lib/nn/mlp.ml", "batch_scratch_key");
    ]
  in
  List.iter
    (fun (rel, name) ->
      let path = Filename.concat root rel in
      let inv = Inventory.scan ~path (Lexer.lex (Sources.read_file path)) in
      match
        List.find_opt
          (fun (e : Inventory.entry) -> e.Inventory.name = name)
          inv.Inventory.globals
      with
      | None -> Alcotest.fail (rel ^ ": " ^ name ^ " missing from inventory")
      | Some e ->
          check_bool
            (rel ^ ": " ^ name ^ " classified Domain.DLS")
            true
            (e.Inventory.kind = Inventory.Dls);
          check_bool
            (rel ^ ": " ^ name ^ " blessed")
            true
            (Inventory.blessed e.Inventory.kind))
    arenas;
  let baseline = Sources.read_file (Filename.concat root "lint.baseline") in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (_, name) ->
      check_bool ("no baseline waiver mentions " ^ name) false
        (contains baseline name))
    arenas

(* The fleet's pool-parallel advancement must stay clean by
   construction: every mutable cell it touches is flow-indexed state
   reached through the chunked [lo, hi) range, so the racecheck pass
   should find nothing to baseline. An entry naming fleet.ml under the
   race rule would mean someone waived a real shared-mutable finding
   instead of fixing the layout. *)
let test_fleet_parallel_unbaselined () =
  let root = repo_root () in
  let entries =
    Suppress.load_entries (Filename.concat root "lint.baseline")
  in
  let offending =
    List.filter
      (fun (e : Suppress.entry) ->
        e.Suppress.e_rule = Racecheck.rule_name
        &&
        let hay = e.Suppress.e_rest in
        let needle = "lib/netsim/fleet.ml" in
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0)
      entries
  in
  check_int "no racecheck baseline entry for fleet.ml" 0
    (List.length offending)

let suite =
  [
    Alcotest.test_case "lexer: strings and comments" `Quick
      test_lexer_strings_and_comments;
    Alcotest.test_case "lexer: nested comments" `Quick
      test_lexer_nested_comments;
    Alcotest.test_case "lexer: char vs type variable" `Quick
      test_lexer_char_vs_type_variable;
    Alcotest.test_case "lexer: quoted strings" `Quick
      test_lexer_quoted_strings;
    Alcotest.test_case "lexer: line/col positions" `Quick
      test_lexer_positions;
    Alcotest.test_case "inventory: classification" `Quick
      test_inventory_classification;
    Alcotest.test_case "inventory: mutable fields" `Quick
      test_inventory_mutable_fields;
    Alcotest.test_case "inventory: module_of_path" `Quick
      test_inventory_module_of_path;
    Alcotest.test_case "callgraph: reference resolution" `Quick
      test_callgraph_refs;
    Alcotest.test_case "racecheck: reachable global write" `Quick
      test_race_reachable_global_write;
    Alcotest.test_case "racecheck: DLS/Atomic blessed" `Quick
      test_race_dls_and_atomic_blessed;
    Alcotest.test_case "racecheck: mutex guard" `Quick test_race_mutex_guard;
    Alcotest.test_case "racecheck: range-disjoint writes" `Quick
      test_race_range_disjoint;
    Alcotest.test_case "racecheck: local state clean" `Quick
      test_race_local_state_clean;
    Alcotest.test_case "racecheck: inline waiver" `Quick test_race_waiver;
    Alcotest.test_case "racecheck: sequential write unflagged" `Quick
      test_race_sequential_write_not_flagged;
    Alcotest.test_case "racecheck: seeded fixture pair" `Quick
      test_race_seeded_fixture_pair;
    Alcotest.test_case "racecheck: scratch arenas blessed as DLS" `Quick
      test_scratch_arenas_blessed;
    Alcotest.test_case "racecheck: fleet parallel region unbaselined" `Quick
      test_fleet_parallel_unbaselined;
    Alcotest.test_case "e2e: committed baseline exact" `Quick
      test_e2e_baseline_exact;
  ]
