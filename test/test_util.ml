(* Tests for canopy_util: PRNG, statistics, math helpers. *)

open Canopy_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  check_bool "different seeds differ" false (Prng.bits64 a = Prng.bits64 b)

let test_prng_split_independent () =
  let parent = Prng.create 11 in
  let child = Prng.split parent 0 in
  let xs = List.init 50 (fun _ -> Prng.bits64 parent) in
  let ys = List.init 50 (fun _ -> Prng.bits64 child) in
  check_bool "streams differ" false (xs = ys)

let test_prng_split_deterministic () =
  let stream idx =
    let child = Prng.split (Prng.create 11) idx in
    List.init 20 (fun _ -> Prng.bits64 child)
  in
  check_bool "same parent state + index replays" true (stream 3 = stream 3);
  check_bool "distinct indices give distinct streams" false
    (stream 0 = stream 1);
  (* Sibling streams from distinct indices stay decorrelated well past
     the first draw. *)
  let pairs = List.combine (stream 4) (stream 5) in
  check_bool "no pointwise collisions" true
    (List.for_all (fun (a, b) -> a <> b) pairs)

let test_prng_split_advances_parent () =
  (* split consumes exactly one draw from the parent, so a split is
     stream-equivalent to one bits64 call. *)
  let a = Prng.create 17 and b = Prng.create 17 in
  ignore (Prng.split a 2);
  ignore (Prng.bits64 b);
  Alcotest.(check int64) "parent advanced by one draw" (Prng.bits64 a)
    (Prng.bits64 b)

let test_prng_split_negative_rejected () =
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.split: negative index") (fun () ->
      ignore (Prng.split (Prng.create 1) (-1)))

let test_prng_copy_replays () =
  let a = Prng.create 3 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy replays" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_int_range () =
  let rng = Prng.create 5 in
  for _ = 1 to 10_000 do
    let x = Prng.int rng 17 in
    check_bool "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_covers () =
  let rng = Prng.create 9 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Prng.int rng 8) <- true
  done;
  Array.iteri (fun i s -> check_bool (Printf.sprintf "bucket %d hit" i) true s)
    seen

let test_prng_float_range () =
  let rng = Prng.create 13 in
  for _ = 1 to 1_000 do
    let x = Prng.float rng 2.5 in
    check_bool "in [0, 2.5)" true (x >= 0. && x < 2.5)
  done

let test_prng_uniform_range () =
  let rng = Prng.create 17 in
  for _ = 1 to 1_000 do
    let x = Prng.uniform rng (-3.) 4. in
    check_bool "in [-3, 4)" true (x >= -3. && x < 4.)
  done

let test_prng_gaussian_moments () =
  let rng = Prng.create 23 in
  let xs = Array.init 20_000 (fun _ -> Prng.gaussian rng) in
  check_bool "mean near 0" true (Float.abs (Stats.mean xs) < 0.05);
  check_bool "stddev near 1" true (Float.abs (Stats.stddev xs -. 1.) < 0.05)

let test_prng_gaussian_scaled () =
  let rng = Prng.create 29 in
  let xs =
    Array.init 20_000 (fun _ -> Prng.gaussian_scaled rng ~mu:5. ~sigma:2.)
  in
  check_bool "mean near 5" true (Float.abs (Stats.mean xs -. 5.) < 0.1);
  check_bool "stddev near 2" true (Float.abs (Stats.stddev xs -. 2.) < 0.1)

let test_prng_exponential_mean () =
  let rng = Prng.create 31 in
  let xs = Array.init 20_000 (fun _ -> Prng.exponential rng ~rate:0.5) in
  Array.iter (fun x -> check_bool "non-negative" true (x >= 0.)) xs;
  check_bool "mean near 1/rate" true (Float.abs (Stats.mean xs -. 2.) < 0.1)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_percentile_simple () =
  let xs = [| 3.; 1.; 2.; 5.; 4. |] in
  check_float "p0 = min" 1. (Stats.percentile xs 0.);
  check_float "p100 = max" 5. (Stats.percentile xs 100.);
  check_float "p50 = median" 3. (Stats.percentile xs 50.)

let test_percentile_interpolates () =
  let xs = [| 0.; 10. |] in
  check_float "p25" 2.5 (Stats.percentile xs 25.);
  check_float "p75" 7.5 (Stats.percentile xs 75.)

let test_percentile_singleton () =
  check_float "singleton" 42. (Stats.percentile [| 42. |] 95.)

let test_percentile_empty_raises () =
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Stats.percentile [||] 50.))

let test_stats_mean_empty () = check_float "mean empty" 0. (Stats.mean [||])

(* Jain's index: exact at the two analytic anchors (both computable
   without rounding), and degenerate inputs defined as perfectly fair. *)
let test_jain_equal_share () =
  check_float "equal allocations" 1. (Stats.jain_index [| 3.; 3.; 3.; 3. |]);
  check_float "singleton" 1. (Stats.jain_index [| 42. |])

let test_jain_single_hog () =
  (* One flow gets everything: J = 1/n, exactly representable for n=4. *)
  check_float "1/n for a single hog" 0.25
    (Stats.jain_index [| 8.; 0.; 0.; 0. |])

let test_jain_degenerate () =
  check_float "empty is fair" 1. (Stats.jain_index [||]);
  check_float "all-zero is fair" 1. (Stats.jain_index [| 0.; 0.; 0. |])

(* ------------------------------------------------------------------ *)
(* Mathx *)

let test_clamp () =
  check_float "below" 1. (Mathx.clamp ~lo:1. ~hi:2. 0.);
  check_float "above" 2. (Mathx.clamp ~lo:1. ~hi:2. 5.);
  check_float "inside" 1.5 (Mathx.clamp ~lo:1. ~hi:2. 1.5)

let test_lerp () =
  check_float "t=0" 2. (Mathx.lerp 2. 8. 0.);
  check_float "t=1" 8. (Mathx.lerp 2. 8. 1.);
  check_float "t=0.5" 5. (Mathx.lerp 2. 8. 0.5)

let test_pow2_log2 () =
  check_float "pow2 3" 8. (Mathx.pow2 3.);
  check_float "pow2 -1" 0.5 (Mathx.pow2 (-1.));
  check_float "log2 8" 3. (Mathx.log2 8.);
  check_bool "roundtrip" true (Mathx.approx_equal (Mathx.log2 (Mathx.pow2 2.7)) 2.7)

let test_sign_round () =
  check_float "sign neg" (-1.) (Mathx.sign (-0.3));
  check_float "sign zero" 0. (Mathx.sign 0.)

let test_approx_equal () =
  check_bool "exact" true (Mathx.approx_equal 1. 1.);
  check_bool "close" true (Mathx.approx_equal ~eps:1e-6 1. (1. +. 1e-9));
  check_bool "far" false (Mathx.approx_equal 1. 2.)

(* ------------------------------------------------------------------ *)
(* Property-based *)

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"percentile is within sample bounds" ~count:200
      (pair (list_of_size Gen.(1 -- 40) (float_bound_inclusive 100.))
         (float_bound_inclusive 100.))
      (fun (xs, p) ->
        let a = Array.of_list xs in
        let v = Canopy_util.Stats.percentile a p in
        let lo = Array.fold_left Float.min a.(0) a in
        let hi = Array.fold_left Float.max a.(0) a in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
    Test.make ~name:"clamp is idempotent and bounded" ~count:200
      (triple (float_range (-100.) 100.) (float_range (-100.) 100.)
         (float_range (-200.) 200.))
      (fun (a, b, x) ->
        let lo = Float.min a b and hi = Float.max a b in
        let c = Canopy_util.Mathx.clamp ~lo ~hi x in
        c >= lo && c <= hi
        && Canopy_util.Mathx.clamp ~lo ~hi c = c);
  ]

(* ------------------------------------------------------------------ *)
(* Prng snapshot state *)

let test_prng_state_roundtrip () =
  let a = Prng.create 9 in
  for _ = 1 to 17 do
    ignore (Prng.bits64 a)
  done;
  let b = Prng.of_state (Prng.state a) in
  for _ = 1 to 50 do
    Alcotest.(check int64) "of_state replays" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_set_state () =
  let a = Prng.create 1 and b = Prng.create 2 in
  ignore (Prng.bits64 a);
  Prng.set_state b (Prng.state a);
  Alcotest.(check int64) "set_state aligns streams" (Prng.bits64 a)
    (Prng.bits64 b)

let test_prng_reseed () =
  let mk () =
    let t = Prng.create 5 in
    ignore (Prng.bits64 t);
    t
  in
  let base = mk () and salted = mk () and salted' = mk () in
  Prng.reseed salted ~salt:1;
  Prng.reseed salted' ~salt:1;
  let take t = List.init 20 (fun _ -> Prng.bits64 t) in
  let xs = take base and ys = take salted and ys' = take salted' in
  check_bool "reseed decorrelates" false (xs = ys);
  check_bool "reseed deterministic" true (ys = ys');
  let other = mk () in
  Prng.reseed other ~salt:2;
  check_bool "salts give distinct streams" false (take other = ys)

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_known_vector () =
  (* The standard IEEE 802.3 check value. *)
  Alcotest.(check string) "check vector" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.string ""))

let test_crc32_incremental () =
  let a = "canopy-" and b = "train v2" in
  Alcotest.(check int32) "update extends" (Crc32.string (a ^ b))
    (Crc32.update (Crc32.string a) b)

let test_crc32_hex_roundtrip () =
  let crc = Crc32.string "some payload" in
  (match Crc32.of_hex (Crc32.to_hex crc) with
  | Some back -> Alcotest.(check int32) "roundtrip" crc back
  | None -> Alcotest.fail "of_hex rejected to_hex output");
  check_bool "too short" true (Crc32.of_hex "abc" = None);
  check_bool "non-hex" true (Crc32.of_hex "zzzzzzzz" = None);
  check_bool "sign prefix" true (Crc32.of_hex "-1234567" = None);
  check_bool "underscores" true (Crc32.of_hex "12_45678" = None)

(* ------------------------------------------------------------------ *)
(* Atomic_file *)

let with_temp_dir f =
  let marker = Filename.temp_file "canopy-test" ".tmp" in
  let dir = marker ^ ".d" in
  Atomic_file.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun e -> Sys.remove (Filename.concat dir e))
           (Sys.readdir dir)
       with Sys_error _ -> ());
      (try Sys.rmdir dir with Sys_error _ -> ());
      try Sys.remove marker with Sys_error _ -> ())
    (fun () -> f dir)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_atomic_write_and_overwrite () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "out.txt" in
      Atomic_file.write path "first\n";
      Alcotest.(check string) "written" "first\n" (read_all path);
      Atomic_file.write path "second, longer contents\n";
      Alcotest.(check string) "overwritten" "second, longer contents\n"
        (read_all path);
      (* No staging litter left behind. *)
      Alcotest.(check (list string)) "no temp files" [ "out.txt" ]
        (Array.to_list (Sys.readdir dir)))

let test_atomic_write_failure_keeps_target () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "missing-dir" in
      (* Writing into a nonexistent directory fails... *)
      check_bool "raises" true
        (match Atomic_file.write (Filename.concat path "x") "data" with
        | () -> false
        | exception Sys_error _ -> true))

let test_mkdir_p () =
  with_temp_dir (fun dir ->
      let deep = Filename.concat (Filename.concat dir "a") "b" in
      Atomic_file.mkdir_p deep;
      check_bool "created" true (Sys.is_directory deep);
      (* Idempotent on existing directories. *)
      Atomic_file.mkdir_p deep;
      check_bool "still there" true (Sys.is_directory deep);
      (* A file in the way is an error. *)
      let file = Filename.concat dir "occupied" in
      Atomic_file.write file "x";
      check_bool "non-directory rejected" true
        (match Atomic_file.mkdir_p (Filename.concat file "sub") with
        | () -> false
        | exception (Invalid_argument _ | Sys_error _) -> true))

let suite =
  [
    ("prng determinism", `Quick, test_prng_deterministic);
    ("prng seed sensitivity", `Quick, test_prng_seed_sensitivity);
    ("prng split independence", `Quick, test_prng_split_independent);
    ("prng split deterministic", `Quick, test_prng_split_deterministic);
    ("prng split advances parent", `Quick, test_prng_split_advances_parent);
    ("prng split negative rejected", `Quick, test_prng_split_negative_rejected);
    ("prng copy replays", `Quick, test_prng_copy_replays);
    ("prng int range", `Quick, test_prng_int_range);
    ("prng int covers buckets", `Quick, test_prng_int_covers);
    ("prng float range", `Quick, test_prng_float_range);
    ("prng uniform range", `Quick, test_prng_uniform_range);
    ("prng gaussian moments", `Quick, test_prng_gaussian_moments);
    ("prng gaussian scaled", `Quick, test_prng_gaussian_scaled);
    ("prng exponential mean", `Quick, test_prng_exponential_mean);
    ("percentile simple", `Quick, test_percentile_simple);
    ("percentile interpolates", `Quick, test_percentile_interpolates);
    ("percentile singleton", `Quick, test_percentile_singleton);
    ("percentile empty raises", `Quick, test_percentile_empty_raises);
    ("mean of empty", `Quick, test_stats_mean_empty);
    ("jain equal share", `Quick, test_jain_equal_share);
    ("jain single hog", `Quick, test_jain_single_hog);
    ("jain degenerate", `Quick, test_jain_degenerate);
    ("clamp", `Quick, test_clamp);
    ("lerp", `Quick, test_lerp);
    ("pow2/log2", `Quick, test_pow2_log2);
    ("sign/round", `Quick, test_sign_round);
    ("approx_equal", `Quick, test_approx_equal);
    ("prng state roundtrip", `Quick, test_prng_state_roundtrip);
    ("prng set_state", `Quick, test_prng_set_state);
    ("prng reseed", `Quick, test_prng_reseed);
    ("crc32 known vector", `Quick, test_crc32_known_vector);
    ("crc32 incremental", `Quick, test_crc32_incremental);
    ("crc32 hex roundtrip", `Quick, test_crc32_hex_roundtrip);
    ("atomic write/overwrite", `Quick, test_atomic_write_and_overwrite);
    ("atomic write failure keeps target", `Quick,
      test_atomic_write_failure_keeps_target);
    ("mkdir_p", `Quick, test_mkdir_p);
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck
