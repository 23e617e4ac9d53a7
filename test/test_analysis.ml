(* Tests for canopy_analysis: lint rule positives/negatives on fixture
   snippets, baseline suppression, the soundness audit (which must be
   clean over the real transformers), netcheck rejections, and the
   BENCH record writer, parser and regression gate. *)

open Canopy_analysis
module Prng = Canopy_util.Prng
module Vec = Canopy_tensor.Vec
module Layer = Canopy_nn.Layer

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rules_of diags =
  List.sort_uniq String.compare (List.map (fun d -> d.Diagnostic.rule) diags)

let lint s = Lint.check_source ~path:"fixture.ml" s

(* ------------------------------------------------------------------ *)
(* Lint: positives *)

let test_lint_polymorphic_compare () =
  let diags = lint "let sorted = Array.sort compare xs\n" in
  Alcotest.(check (list string)) "flagged" [ "polymorphic-compare" ]
    (rules_of diags);
  check_int "line" 1 (List.hd diags).Diagnostic.line;
  let diags = lint "let c = Stdlib.compare a b\n" in
  Alcotest.(check (list string)) "Stdlib.compare flagged"
    [ "polymorphic-compare" ] (rules_of diags)

let test_lint_float_min_max () =
  let fixture = "let lo = min 0.5 x\nlet m = Array.fold_left max xs.(0) xs\n" in
  let diags = lint fixture in
  check_int "both lines flagged" 2 (List.length diags);
  Alcotest.(check (list string)) "rule" [ "float-min-max" ] (rules_of diags)

let test_lint_int_of_float () =
  let diags = lint "let n = int_of_float (x /. step)\n" in
  Alcotest.(check (list string)) "flagged" [ "int-of-float" ] (rules_of diags)

let test_lint_obj_magic () =
  let diags = lint "let y = Obj.magic x\n" in
  Alcotest.(check (list string)) "flagged" [ "obj-magic" ] (rules_of diags)

let test_lint_catch_all () =
  let diags = lint "let v = try f x with _ -> 0\n" in
  Alcotest.(check (list string)) "flagged" [ "catch-all-exn" ] (rules_of diags)

let test_lint_array_make_alias () =
  let diags = lint "let dout = Array.make n [| -1. /. float_of_int n |]\n" in
  Alcotest.(check (list string))
    "array literal" [ "array-make-alias" ] (rules_of diags);
  let diags = lint "let grid = Array.make rows (Array.make cols 0.)\n" in
  Alcotest.(check (list string))
    "nested make" [ "array-make-alias" ] (rules_of diags);
  let diags = lint "let m = Array.make (rows * cols) [| 0. |]\n" in
  Alcotest.(check (list string))
    "parenthesized count" [ "array-make-alias" ] (rules_of diags)

let test_lint_mlp_layer_walk () =
  let fixture = "let n = List.length (Mlp.layers net)\n" in
  let at path = rules_of (Lint.check_source ~path fixture) in
  let p parts = String.concat Filename.dir_sep parts in
  Alcotest.(check (list string)) "flagged outside lib/nn"
    [ "mlp-layer-walk" ]
    (at (p [ "lib"; "core"; "certify.ml" ]));
  Alcotest.(check (list string)) "flagged in bin"
    [ "mlp-layer-walk" ]
    (at (p [ "bin"; "check.ml" ]));
  Alcotest.(check (list string)) "exempt under lib/nn" []
    (at (p [ "lib"; "nn"; "mlp.ml" ]));
  Alcotest.(check (list string)) "exempt in the IR builder" []
    (at (p [ "lib"; "absint"; "anet.ml" ]))

let test_lint_non_atomic_write () =
  let fixture = "let oc = open_out path in\n" in
  let at path = rules_of (Lint.check_source ~path fixture) in
  let p parts = String.concat Filename.dir_sep parts in
  Alcotest.(check (list string)) "flagged in lib"
    [ "non-atomic-write" ]
    (at (p [ "lib"; "core"; "trainer.ml" ]));
  Alcotest.(check (list string)) "open_out_bin flagged too"
    [ "non-atomic-write" ]
    (rules_of
       (Lint.check_source
          ~path:(p [ "bin"; "train.ml" ])
          "let oc = open_out_bin path in\n"));
  Alcotest.(check (list string)) "exempt in the atomic writer itself" []
    (at (p [ "lib"; "util"; "atomic_file.ml" ]));
  Alcotest.(check (list string)) "waivable inline" []
    (rules_of
       (lint "let oc = open_out p (* lint-ignore: non-atomic-write *)\n"))

let test_lint_raw_domain_spawn () =
  let fixture = "let d = Domain.spawn (fun () -> work ())\n" in
  let at path = rules_of (Lint.check_source ~path fixture) in
  let p parts = String.concat Filename.dir_sep parts in
  Alcotest.(check (list string)) "flagged in lib"
    [ "raw-domain-spawn" ]
    (at (p [ "lib"; "core"; "trainer.ml" ]));
  Alcotest.(check (list string)) "Thread.create flagged too"
    [ "raw-domain-spawn" ]
    (rules_of
       (Lint.check_source
          ~path:(p [ "bin"; "train.ml" ])
          "let t = Thread.create run ()\n"));
  Alcotest.(check (list string)) "exempt in the pool itself" []
    (at (p [ "lib"; "util"; "pool.ml" ]));
  Alcotest.(check (list string)) "waivable inline" []
    (rules_of
       (lint "let d = Domain.spawn f (* lint-ignore: raw-domain-spawn *)\n"))

let test_lint_bare_min_max () =
  let p parts = String.concat Filename.dir_sep parts in
  let at path src = rules_of (Lint.check_source ~path src) in
  let fleet = p [ "lib"; "netsim"; "fleet.ml" ] in
  (* Int arguments, a variable and a float non-literal: float-min-max
     sees none of them, the per-packet rule sees all three. *)
  List.iter
    (fun src ->
      Alcotest.(check (list string)) src [ "bare-min-max" ] (at fleet src))
    [
      "let w = max 1 (n / k)\n";
      "let used = min opportunities q_len\n";
      "let s = max a.(i) (b +. c)\n";
    ];
  Alcotest.(check (list string)) "lib/cc" [ "bare-min-max" ]
    (at (p [ "lib"; "cc"; "cubic.ml" ]) "let g = max 5 guard\n");
  Alcotest.(check (list string)) "lib/orca" [ "bare-min-max" ]
    (at (p [ "lib"; "orca"; "monitor.ml" ]) "let i = max 1 (b - a)\n");
  Alcotest.(check (list string)) "both rules on a float literal"
    [ "bare-min-max"; "float-min-max" ]
    (at fleet "let c = max 1. w\n");
  Alcotest.(check (list string)) "typed, fields, definitions, comments" []
    (at fleet
       "let w = Int.max 1 n and f = Float.min 1. x\n\
        type r = { min : int; max : int }\n\
        let r = { min; max }\n\
        let max = 3\n\
        let g ~max = max\n\
        (* max 1 n *)\n");
  Alcotest.(check (list string)) "other layers untouched" []
    (at (p [ "lib"; "core"; "eval.ml" ]) "let i = max 20 rtt\n");
  Alcotest.(check (list string)) "waivable inline" []
    (at fleet "let w = max 1 n (* lint-ignore: bare-min-max *)\n")

let test_lint_array_make_scalar_clean () =
  let fixture =
    "let a = Array.make n 0.\n\
     let b = Array.make (capacity t) None\n\
     let c = Array.make n first\n\
     let d = Array.make_matrix rows cols 0.\n"
  in
  check_int "scalar/identity fills clean" 0 (List.length (lint fixture))

(* ------------------------------------------------------------------ *)
(* Lint: negatives *)

let test_lint_typed_comparators_clean () =
  let fixture =
    "let () = Array.sort Float.compare xs\n\
     let c = Int.compare a b\n\
     let lo = Float.min 0.5 x\n\
     let hi = List.fold_left Float.max xs.(0) xs\n\
     let n = List.fold_left max 1 timestamps\n\
     let cmp = Interval.compare_width a b\n"
  in
  check_int "clean" 0 (List.length (lint fixture))

let test_lint_ignores_comments_and_strings () =
  let fixture =
    "(* Array.sort compare is bad; int_of_float too *)\n\
     let doc = \"use Obj.magic with _ -> never\"\n\
     (* nested (* with _ -> *) still a comment *)\n\
     let s = \"escaped \\\" quote then compare\"\n"
  in
  check_int "clean" 0 (List.length (lint fixture))

let test_lint_quoted_strings_clean () =
  (* Rule keywords inside quoted-string literals — which the pre-lexer
     line scanner could not skip — must never fire. *)
  let fixture =
    "let doc = {|Array.sort compare xs; Obj.magic; int_of_float|}\n\
     let tagged = {err|try f x with _ -> min 0.5 y|err}\n\
     let multi = {|line one int_of_float\n\
     line two Obj.magic|}\n"
  in
  check_int "quoted strings clean" 0 (List.length (lint fixture))

let test_lint_every_rule_keyword_in_text_clean () =
  (* One fixture per rule with its trigger inside a comment and inside
     a string: the token-stripped scanner must report nothing. *)
  let triggers =
    [
      "Array.sort compare xs";
      "min 0.5 x";
      "int_of_float x";
      "Obj.magic x";
      "try f x with _ -> 0";
      "Array.make n [| 0. |]";
      "Mlp.layers net";
      "Domain.spawn f";
    ]
  in
  List.iter
    (fun trig ->
      let fixture =
        Printf.sprintf "(* %s *)\nlet s = \"%s\"\n" trig
          (String.concat "\\\"" (String.split_on_char '"' trig))
      in
      check_int
        (Printf.sprintf "clean for %S in text" trig)
        0
        (List.length (lint fixture)))
    triggers

let test_lint_inline_waiver () =
  let fixture =
    "let a = Array.sort compare xs (* lint-ignore: polymorphic-compare *)\n\
     let b = int_of_float x (* lint-ignore *)\n\
     let c = int_of_float y (* lint-ignore: polymorphic-compare *)\n"
  in
  let diags = lint fixture in
  (* line 3's waiver names a different rule, so int-of-float survives *)
  check_int "only unwaived finding" 1 (List.length diags);
  check_int "line 3" 3 (List.hd diags).Diagnostic.line

let test_lint_field_decls_not_flagged () =
  let fixture = "type summary = {\n  min : float;\n  max : float;\n}\n" in
  check_int "record fields clean" 0 (List.length (lint fixture))

(* ------------------------------------------------------------------ *)
(* Lint: missing-mli (needs real files) *)

let test_lint_missing_mli () =
  let root = Filename.temp_file "canopy_lint" "" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  Sys.mkdir (Filename.concat root "bin") 0o755;
  let write rel contents =
    let oc = open_out (Filename.concat root rel) in
    output_string oc contents;
    close_out oc
  in
  write "lib/good.ml" "let x = 1\n";
  write "lib/good.mli" "val x : int\n";
  write "lib/bad.ml" "let y = 2\n";
  write "bin/main.ml" "let () = ()\n";
  let files = Sources.find_files ~root ~dirs:[ "lib"; "bin" ] ~ext:".ml" in
  let diags = Lint.check_missing_mli ~root files in
  check_int "one finding" 1 (List.length diags);
  let d = List.hd diags in
  Alcotest.(check string) "rule" "missing-mli" d.Diagnostic.rule;
  Alcotest.(check string) "file" (Filename.concat "lib" "bad.ml") d.file

(* ------------------------------------------------------------------ *)
(* Suppression baseline *)

let test_baseline_roundtrip () =
  let diags =
    lint "let a = int_of_float x\nlet b = Array.sort compare xs\n"
  in
  check_int "two findings" 2 (List.length diags);
  let path = Filename.temp_file "canopy_baseline" ".txt" in
  Suppress.save path diags;
  let fresh, suppressed = Suppress.filter (Suppress.load path) diags in
  check_int "all suppressed" 0 (List.length fresh);
  check_int "count" 2 suppressed;
  (* a new finding on different source text is not suppressed *)
  let other = lint "let c = int_of_float z\n" in
  let fresh, _ = Suppress.filter (Suppress.load path) other in
  check_int "different text survives" 1 (List.length fresh);
  Sys.remove path

let test_baseline_survives_renumbering () =
  let v1 = lint "let a = int_of_float x\n" in
  let path = Filename.temp_file "canopy_baseline" ".txt" in
  Suppress.save path v1;
  (* same source line, shifted down two lines *)
  let v2 = lint "let pad = 0\nlet pad2 = 1\nlet a = int_of_float x\n" in
  let fresh, suppressed = Suppress.filter (Suppress.load path) v2 in
  check_int "still suppressed" 0 (List.length fresh);
  check_int "count" 1 suppressed;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Soundness audit *)

let test_audit_clean_10k () =
  let result = Soundcheck.run ~seed:2026 ~samples:10_000 () in
  check_int "samples" 10_000 result.samples;
  List.iter
    (fun v -> Alcotest.failf "%s" (Format.asprintf "%a" Soundcheck.pp_violation v))
    result.violations;
  check_int "violations" 0 result.violation_count;
  (* every transformer actually received samples *)
  List.iter
    (fun (op, n) -> if n = 0 then Alcotest.failf "op %s never sampled" op)
    result.per_op

let test_audit_determinism () =
  let a = Soundcheck.run ~seed:7 ~samples:500 () in
  let b = Soundcheck.run ~seed:7 ~samples:500 () in
  check_int "same violation count" a.violation_count b.violation_count;
  check_int "violations (expected clean)" 0 a.violation_count

let test_audit_covers_anet_ops () =
  (* The verifier-IR transfer functions are part of the audited surface. *)
  List.iter
    (fun op ->
      check_bool (op ^ " registered") true (List.mem op Soundcheck.op_names))
    [ "anet.propagate"; "anet.ibp.batched"; "anet.zonotope" ]

(* ------------------------------------------------------------------ *)
(* Netcheck *)

let test_netcheck_accepts_fresh_actor () =
  let rng = Prng.create 11 in
  let net = Canopy_nn.Mlp.actor ~rng ~in_dim:10 ~hidden:16 ~out_dim:1 in
  check_int "clean" 0 (List.length (Netcheck.check_mlp net))

let test_netcheck_rejects_dim_mismatch () =
  let rng = Prng.create 12 in
  (* dense expects 8 inputs but the stack feeds it 4 *)
  let layers =
    [ Layer.dense ~rng ~in_dim:8 ~out_dim:3; Layer.tanh ]
  in
  let diags = Netcheck.check_layers ~name:"stack" ~in_dim:4 layers in
  check_bool "dimension mismatch reported" true
    (List.exists (fun d -> d.Diagnostic.rule = "net-dim-mismatch") diags)

let test_netcheck_rejects_nonfinite_weight () =
  let rng = Prng.create 13 in
  let net = Canopy_nn.Mlp.actor ~rng ~in_dim:4 ~hidden:8 ~out_dim:1 in
  (match Canopy_nn.Mlp.layers net with
  | Layer.Dense d :: _ -> (Canopy_tensor.Mat.raw d.w).(0) <- Float.nan
  | _ -> Alcotest.fail "expected dense first");
  let diags = Netcheck.check_mlp net in
  check_bool "non-finite reported" true
    (List.exists (fun d -> d.Diagnostic.rule = "net-nonfinite-param") diags)

let test_netcheck_rejects_uninitialized_bn () =
  let bn =
    match Layer.batch_norm ~dim:4 () with
    | Layer.Batch_norm bn -> bn
    | _ -> assert false
  in
  Vec.fill bn.running_var 0.;
  let diags = Netcheck.check_layers ~name:"stack" ~in_dim:4 [ Layer.Batch_norm bn ] in
  check_bool "uninitialized stats reported" true
    (List.exists (fun d -> d.Diagnostic.rule = "net-bn-uninitialized") diags)

let test_netcheck_assert_valid_raises () =
  let rng = Prng.create 14 in
  let net = Canopy_nn.Mlp.actor ~rng ~in_dim:4 ~hidden:8 ~out_dim:1 in
  (match Canopy_nn.Mlp.layers net with
  | Layer.Dense d :: _ -> d.b.(0) <- Float.infinity
  | _ -> Alcotest.fail "expected dense first");
  check_bool "raises" true
    (try
       Netcheck.assert_valid ~what:"poisoned" net;
       false
     with Invalid_argument _ -> true)

let test_netcheck_checkpoint_roundtrip () =
  let rng = Prng.create 15 in
  let net = Canopy_nn.Mlp.actor ~rng ~in_dim:5 ~hidden:8 ~out_dim:1 in
  let path = Filename.temp_file "canopy_netcheck" ".ckpt" in
  Canopy_nn.Checkpoint.save net path;
  (match Netcheck.check_checkpoint path with
  | Ok [] -> ()
  | Ok diags ->
      Alcotest.failf "unexpected findings: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Diagnostic.pp) diags))
  | Error msg -> Alcotest.failf "unexpected error: %s" msg);
  (* corrupt the checkpoint: netcheck must reject, not crash *)
  let oc = open_out path in
  output_string oc "canopy-mlp v1\nin_dim 5\nlayers 1\ndense 2 5\n1 2 3\n";
  close_out oc;
  (match Netcheck.check_checkpoint path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed checkpoint accepted");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Bench report *)

module B = Bench_report

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let raises_failure f =
  match f () with _ -> false | exception Failure _ -> true

(* The repo root: the parent of test/ under dune runtest, the working
   directory under dune exec. *)
let repo_root = if Sys.file_exists "fixtures" then ".." else "."

let committed_records () =
  Sys.readdir repo_root
  |> Array.to_list
  |> List.filter (fun n ->
         String.length n > 6
         && String.sub n 0 6 = "BENCH_"
         && Filename.check_suffix n ".json")
  |> List.sort String.compare

let test_bench_committed_roundtrip () =
  let names = committed_records () in
  check_bool "committed records found" true (List.length names >= 5);
  List.iter
    (fun name ->
      let v =
        B.json_of_string
          (In_channel.with_open_bin (Filename.concat repo_root name)
             In_channel.input_all)
      in
      check_bool (name ^ " round-trips") true
        (B.json_of_string (B.json_to_string v) = v))
    names

let test_bench_writer () =
  List.iter
    (fun f ->
      check_bool
        (Printf.sprintf "rejects %h" f)
        true
        (raises_invalid (fun () -> B.json_to_string (B.Arr [ B.Num f ]))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  check_bool "rejects a raw control byte" true
    (raises_invalid (fun () -> B.json_to_string (B.Str "a\001b")));
  let v =
    B.Obj
      [
        ("quote \" and \\ backslash", B.Str "line\nbreak\t\r\b \"q\" \\");
        ( "nums",
          B.Arr [ B.Num 0.1; B.Num 313213.3; B.Num 1e-300; B.Num (-0.) ] );
      ]
  in
  check_bool "escapes and floats round-trip" true
    (B.json_of_string (B.json_to_string v) = v)

let test_bench_parser_rejects () =
  List.iter
    (fun (what, src) ->
      check_bool what true (raises_failure (fun () -> B.json_of_string src)))
    [
      ("trailing garbage", "{\"a\": 1} x");
      ("bare NaN", "[NaN]");
      ("form-feed escape", "\"a\\fb\"");
    ]

let record_json mode =
  B.json_of_string
    (Printf.sprintf
       {|{"bench": "b", "mode": %S, "entries": [
          {"name": "k1", "batch": 64, "ns_per_op": 5.5},
          {"flows": 1000, "duration_ms": 1600, "domains": 2, "wall_s": 1.5},
          {"name": "k3", "ns_per_op": 7, "skipped_reason": "oversubscribed"},
          {"name": "no_time"}]}|}
       mode)

let test_bench_entries_of_record () =
  let entries = B.entries_of_record (record_json "full") in
  Alcotest.(check (list string))
    "kernel keys"
    [ "b/k1"; "b/f1000_d2_ms1600"; "b/k3" ]
    (List.map (fun (e : B.entry) -> e.kernel) entries);
  Alcotest.(check (list string))
    "metrics" [ "ns_per_op"; "wall_s"; "ns_per_op" ]
    (List.map (fun (e : B.entry) -> e.metric) entries);
  Alcotest.(check (list bool))
    "skipped" [ false; false; true ]
    (List.map (fun (e : B.entry) -> e.skipped) entries);
  check_int "smoke record yields nothing" 0
    (List.length (B.entries_of_record (record_json "smoke")))

let entry ?(skipped = false) value =
  { B.bench = "b"; kernel = "b/k"; metric = "ns_per_op"; value; skipped }

let snapshot stamp entries = { B.stamp; entries }

let regressions ~baseline history =
  List.length (B.build ~baselines:[ baseline ] ~history ()).B.regressions

let test_bench_gate () =
  check_int "16% slower regresses" 1
    (regressions ~baseline:(entry 100.) [ snapshot "1" [ entry 116. ] ]);
  check_int "14% slower passes" 0
    (regressions ~baseline:(entry 100.) [ snapshot "1" [ entry 114. ] ]);
  check_int "skipped baseline never gates" 0
    (regressions ~baseline:(entry ~skipped:true 100.)
       [ snapshot "1" [ entry 300. ] ]);
  check_int "latest non-skipped snapshot is compared" 0
    (regressions ~baseline:(entry 100.)
       [
         snapshot "1" [ entry 300. ];
         snapshot "2" [ entry 105. ];
         snapshot "3" [ entry ~skipped:true 300. ];
       ]);
  check_int "an older fast snapshot does not hide a slow latest" 1
    (regressions ~baseline:(entry 100.)
       [ snapshot "1" [ entry 90. ]; snapshot "2" [ entry 130. ] ]);
  let report = B.build ~baselines:[ entry 100. ] ~history:[] () in
  check_int "no history: nothing compared" 0 report.B.compared;
  check_int "no history: still tracked" 1 report.B.tracked

let with_bench_dir files f =
  let dir = Filename.temp_dir "canopy_bench_report" "" in
  List.iter
    (fun (name, contents) ->
      Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
          Out_channel.output_string oc contents))
    files;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (name, _) -> Sys.remove (Filename.concat dir name)) files;
      Sys.rmdir dir)
    (fun () -> f dir)

let good_record =
  {|{"bench": "b", "mode": "full", "entries": [{"name": "k", "ns_per_op": 1}]}|}

let torn_record = {|{"bench": "b", "mode": "full", "entries": [{"name": "k|}

let test_bench_torn_baseline_fails () =
  with_bench_dir
    [ ("BENCH_good.json", good_record); ("BENCH_torn.json", torn_record) ]
    (fun dir ->
      match B.load_baselines ~dir with
      | _ -> Alcotest.fail "torn baseline accepted"
      | exception Failure msg ->
          check_bool "message names the file" true
            (Test_core.contains_substring msg "BENCH_torn.json"))

let test_bench_torn_history_skipped () =
  with_bench_dir
    [
      ("BENCH_good-20260101T000000.json", good_record);
      ("BENCH_torn-20260101T000000.json", torn_record);
    ]
    (fun dir ->
      match B.load_history ~dir with
      | [ s ] ->
          check_int "good snapshot's entries kept" 1 (List.length s.B.entries)
      | snaps ->
          Alcotest.failf "expected 1 snapshot, got %d" (List.length snaps))

let suite =
  [
    ("lint: polymorphic compare", `Quick, test_lint_polymorphic_compare);
    ("lint: float min/max", `Quick, test_lint_float_min_max);
    ("lint: int_of_float", `Quick, test_lint_int_of_float);
    ("lint: Obj.magic", `Quick, test_lint_obj_magic);
    ("lint: catch-all handler", `Quick, test_lint_catch_all);
    ("lint: Array.make aliasing", `Quick, test_lint_array_make_alias);
    ("lint: Mlp.layers walk", `Quick, test_lint_mlp_layer_walk);
    ("lint: non-atomic write", `Quick, test_lint_non_atomic_write);
    ("lint: raw domain spawn", `Quick, test_lint_raw_domain_spawn);
    ("lint: bare min/max in per-packet layers", `Quick, test_lint_bare_min_max);
    ("lint: Array.make scalar clean", `Quick, test_lint_array_make_scalar_clean);
    ("lint: typed comparators clean", `Quick, test_lint_typed_comparators_clean);
    ("lint: comments/strings ignored", `Quick,
     test_lint_ignores_comments_and_strings);
    ("lint: quoted strings clean", `Quick, test_lint_quoted_strings_clean);
    ("lint: rule keywords in text clean", `Quick,
     test_lint_every_rule_keyword_in_text_clean);
    ("lint: inline waiver", `Quick, test_lint_inline_waiver);
    ("lint: record fields clean", `Quick, test_lint_field_decls_not_flagged);
    ("lint: missing mli", `Quick, test_lint_missing_mli);
    ("baseline roundtrip", `Quick, test_baseline_roundtrip);
    ("baseline survives renumbering", `Quick,
     test_baseline_survives_renumbering);
    ("audit: clean over 10k points", `Slow, test_audit_clean_10k);
    ("audit: deterministic", `Quick, test_audit_determinism);
    ("audit: anet ops registered", `Quick, test_audit_covers_anet_ops);
    ("netcheck: fresh actor ok", `Quick, test_netcheck_accepts_fresh_actor);
    ("netcheck: dim mismatch", `Quick, test_netcheck_rejects_dim_mismatch);
    ("netcheck: non-finite weight", `Quick,
     test_netcheck_rejects_nonfinite_weight);
    ("netcheck: uninitialized batch-norm", `Quick,
     test_netcheck_rejects_uninitialized_bn);
    ("netcheck: assert_valid raises", `Quick,
     test_netcheck_assert_valid_raises);
    ("netcheck: checkpoint roundtrip", `Quick,
     test_netcheck_checkpoint_roundtrip);
    ("bench-report: committed records round-trip", `Quick,
     test_bench_committed_roundtrip);
    ("bench-report: writer", `Quick, test_bench_writer);
    ("bench-report: parser rejects", `Quick, test_bench_parser_rejects);
    ("bench-report: entries_of_record", `Quick, test_bench_entries_of_record);
    ("bench-report: regression gate", `Quick, test_bench_gate);
    ("bench-report: torn baseline fails", `Quick,
     test_bench_torn_baseline_fails);
    ("bench-report: torn history skipped", `Quick,
     test_bench_torn_history_skipped);
  ]
