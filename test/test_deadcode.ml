(* Dead-export analysis on in-memory fixtures: a two-file library module
   ([lib/a/alpha.ml(i)]), a program under bin/ and a test under test/. *)

open Canopy_analysis

let check_bool = Alcotest.(check bool)
let pairs = Alcotest.(list (pair string string))

let alpha ~mli ~ml = [ ("lib/a/alpha.mli", mli); ("lib/a/alpha.ml", ml) ]

let findings files =
  List.map
    (fun (d : Diagnostic.t) -> (d.Diagnostic.rule, d.Diagnostic.text))
    (Deadcode.check_files files).Deadcode.diags

let three =
  alpha ~mli:"val used : int -> int\nval unused : int -> int\nval tested : int -> int\n"
    ~ml:"let used x = x\nlet unused x = x\nlet tested x = used x\n"

let test_unused_export () =
  Alcotest.check pairs "the export nobody outside uses"
    [ (Deadcode.unused_rule, "Alpha.unused") ]
    (findings
       (three
       @ [
           ("bin/main.ml", "let () = print_int (Canopy_a.Alpha.used 1)\n");
           ("test/test_alpha.ml", "let () = ignore (Canopy_a.Alpha.tested 2)\n");
         ]))

let test_test_only_reported () =
  let r =
    Deadcode.check_files
      (three
      @ [
          ("bin/main.ml", "let () = print_int (Canopy_a.Alpha.used 1)\n");
          ( "test/test_alpha.ml",
            "let () = ignore (Canopy_a.Alpha.tested 2 + Canopy_a.Alpha.unused 3)\n" );
        ])
  in
  Alcotest.(check (list string)) "test-only, not findings"
    [ "Alpha.tested"; "Alpha.unused" ] r.Deadcode.test_only;
  check_bool "no finding" true (r.Deadcode.diags = [])

let test_alias_use () =
  Alcotest.check pairs "uses through a module alias count" []
    (findings
       (three
       @ [
           ( "examples/demo.ml",
             "module A = Canopy_a.Alpha\n\
              let () = print_int (A.used 1 + A.unused 2 + A.tested 3)\n" );
         ]))

let test_submodule_path_use () =
  let files main =
    alpha ~mli:"module Sub : sig\n  val v : int\n  val w : int\nend\n"
      ~ml:"module Sub = struct\n  let v = 1\n  let w = 2\nend\n"
    @ [ ("bench/main.ml", main) ]
  in
  Alcotest.check pairs "M.Sub.v and an alias of M.Sub count" []
    (findings
       (files
          "module S = Canopy_a.Alpha.Sub\n\
           let () = print_int (Canopy_a.Alpha.Sub.v + S.w)\n"));
  Alcotest.check pairs "a submodule value nobody uses is a finding"
    [ (Deadcode.unused_rule, "Alpha.Sub.w") ]
    (findings (files "let () = print_int Canopy_a.Alpha.Sub.v\n"))

let test_optional_passed_inside_only () =
  let files main =
    alpha ~mli:"val f : ?k:int -> int -> int\n"
      ~ml:"let f ?(k = 1) x = x + k\nlet g x = f ~k:2 x\n"
    @ [ ("perfbench/perf.ml", main) ]
  in
  Alcotest.check pairs "passed only inside its module"
    [ (Deadcode.optional_rule, "Alpha.f ?k") ]
    (findings (files "let () = print_int (Canopy_a.Alpha.f 3)\n"));
  Alcotest.check pairs "passed by an outside caller" []
    (findings (files "let () = print_int (Canopy_a.Alpha.f ~k:4 3)\n"))

let test_test_only_knob () =
  let r =
    Deadcode.check_files
      (alpha ~mli:"val f : ?k:int -> ?j:int -> int -> int\n"
         ~ml:"let f ?(k = 1) ?(j = 2) x = x + k + j\n"
      @ [
          ("bin/main.ml", "let () = print_int (Canopy_a.Alpha.f ~j:3 4)\n");
          ( "test/test_alpha.ml",
            "let () = ignore (Canopy_a.Alpha.f ~k:5 ~j:6 7)\n" );
        ])
  in
  Alcotest.(check (list string)) "?k passed by tests only, ?j from bin/ too"
    [ "Alpha.f ?k" ] r.Deadcode.test_knobs;
  check_bool "no finding" true (r.Deadcode.diags = [])

let suite =
  [
    Alcotest.test_case "unused export is a finding" `Quick test_unused_export;
    Alcotest.test_case "test-only use reported, not a finding" `Quick
      test_test_only_reported;
    Alcotest.test_case "use through an alias counts" `Quick test_alias_use;
    Alcotest.test_case "use through a submodule path counts" `Quick
      test_submodule_path_use;
    Alcotest.test_case "optional passed only inside is a finding" `Quick
      test_optional_passed_inside_only;
    Alcotest.test_case "knob only tests turn reported, not a finding" `Quick
      test_test_only_knob;
  ]
