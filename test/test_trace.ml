(* Tests for canopy_trace: trace construction, replay semantics,
   Mahimahi-format io, and the synthetic/LTE trace generators. *)

open Canopy_trace

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Trace core *)

let two_step = Trace.of_segments ~name:"two" [ (100, 10.); (200, 40.) ]

let test_segments_lookup () =
  check_float "first segment" 10. (Trace.mbps_at two_step 0);
  check_float "still first" 10. (Trace.mbps_at two_step 99);
  check_float "second" 40. (Trace.mbps_at two_step 100);
  check_float "late second" 40. (Trace.mbps_at two_step 299)

let test_wraparound () =
  check_float "wraps" 10. (Trace.mbps_at two_step 300);
  check_float "wraps into second" 40. (Trace.mbps_at two_step 450)

let test_duration_name () =
  check_int "duration" 300 (Trace.duration_ms two_step);
  Alcotest.(check string) "name" "two" (Trace.name two_step)

let test_aggregates () =
  check_float "avg" 30. (Trace.avg_mbps two_step);
  check_float "min" 10. (Trace.min_mbps two_step);
  check_float "max" 40. (Trace.max_mbps two_step)

let test_constant () =
  let c = Trace.constant ~name:"c" ~duration_ms:1000 ~mbps:24. in
  check_float "everywhere" 24. (Trace.mbps_at c 999);
  check_float "avg" 24. (Trace.avg_mbps c)

let test_packets_per_ms () =
  (* 12 Mbps = 1500 B/ms = exactly one MTU packet per ms. *)
  let c = Trace.constant ~name:"c" ~duration_ms:10 ~mbps:12. in
  check_float "1 pkt/ms" 1. (Trace.packets_per_ms ~mtu_bytes:1500 c 0)

let test_invalid_segments () =
  Alcotest.check_raises "empty" (Invalid_argument "Trace.of_segments: empty")
    (fun () -> ignore (Trace.of_segments ~name:"x" []));
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Trace.of_segments: duration") (fun () ->
      ignore (Trace.of_segments ~name:"x" [ (0, 1.) ]));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Trace.of_segments: rate") (fun () ->
      ignore (Trace.of_segments ~name:"x" [ (10, -1.) ]));
  (* An infinite rate would give [to_mahimahi] a credit that never runs
     out. *)
  Alcotest.check_raises "infinite rate"
    (Invalid_argument "Trace.of_segments: rate") (fun () ->
      ignore (Trace.of_segments ~name:"x" [ (10, 1.); (10, Float.infinity) ]))

let test_of_mbps_array () =
  let t = Trace.of_mbps_array ~name:"arr" ~ms_per_sample:50 [| 10.; 20. |] in
  check_int "duration" 100 (Trace.duration_ms t);
  check_float "sample 0" 10. (Trace.mbps_at t 49);
  check_float "sample 1" 20. (Trace.mbps_at t 50)

(* ------------------------------------------------------------------ *)
(* Mahimahi io *)

let test_mahimahi_render () =
  let c = Trace.constant ~name:"c" ~duration_ms:5 ~mbps:24. in
  (* 24 Mbps = 2 packets per ms -> two lines per timestamp *)
  let lines =
    String.split_on_char '\n' (Trace.to_mahimahi ~mtu_bytes:1500 c)
    |> List.filter (fun l -> l <> "")
  in
  check_int "line count" 10 (List.length lines);
  Alcotest.(check string) "first ts" "1" (List.hd lines)

let test_mahimahi_roundtrip_rate () =
  let c = Trace.constant ~name:"c" ~duration_ms:2000 ~mbps:36. in
  let parsed =
    Trace.of_mahimahi ~name:"back" ~mtu_bytes:1500
      (Trace.to_mahimahi ~mtu_bytes:1500 c)
  in
  check_bool "avg rate preserved" true
    (Float.abs (Trace.avg_mbps parsed -. 36.) < 1.)

let test_mahimahi_file_roundtrip () =
  let c = Trace.constant ~name:"c" ~duration_ms:1000 ~mbps:12. in
  let path = Filename.temp_file "canopy" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save ~mtu_bytes:1500 c path;
      let back = Trace.load ~name:"loaded" ~mtu_bytes:1500 path in
      check_bool "rate" true (Float.abs (Trace.avg_mbps back -. 12.) < 1.))

let test_mahimahi_rejects_garbage () =
  Alcotest.check_raises "garbage"
    (Failure "Trace.of_mahimahi: bad timestamp") (fun () ->
      ignore (Trace.of_mahimahi ~name:"x" ~mtu_bytes:1500 "1\nfoo\n"));
  Alcotest.check_raises "empty" (Failure "Trace.of_mahimahi: empty trace")
    (fun () -> ignore (Trace.of_mahimahi ~name:"x" ~mtu_bytes:1500 "\n"))

(* ------------------------------------------------------------------ *)
(* Synthetic generators (Figs. 15-17) *)

let test_step_fluctuation_alternates () =
  let t =
    Synthetic.step_fluctuation ~duration_ms:4000 ~period_ms:1000 ~low_mbps:10.
      ~high_mbps:50. ()
  in
  check_float "starts high" 50. (Trace.mbps_at t 0);
  check_float "then low" 10. (Trace.mbps_at t 1000);
  check_float "high again" 50. (Trace.mbps_at t 2000);
  check_int "duration" 4000 (Trace.duration_ms t)

let test_step_bounds () =
  let t =
    Synthetic.step_fluctuation ~duration_ms:10_000 ~period_ms:700 ~low_mbps:6.
      ~high_mbps:96. ()
  in
  check_float "min" 6. (Trace.min_mbps t);
  check_float "max" 96. (Trace.max_mbps t)

let test_ramp_drop_shape () =
  let t =
    Synthetic.ramp_drop ~duration_ms:8000 ~cycle_ms:4000 ~floor_mbps:10.
      ~peak_mbps:50. ()
  in
  check_float "starts at floor" 10. (Trace.mbps_at t 0);
  check_bool "grows" true (Trace.mbps_at t 3900 > Trace.mbps_at t 200);
  (* after the cycle boundary, back to floor *)
  check_float "drops back" 10. (Trace.mbps_at t 4000);
  check_bool "peak reached" true (Trace.max_mbps t >= 49.)

let test_triangle_shape () =
  let t =
    Synthetic.triangle ~duration_ms:4000 ~cycle_ms:4000 ~floor_mbps:10.
      ~peak_mbps:50. ()
  in
  let mid = Trace.mbps_at t 2000 in
  check_bool "mid near peak" true (mid > 40.);
  check_bool "symmetric-ish" true
    (Float.abs (Trace.mbps_at t 1000 -. Trace.mbps_at t 3000) < 10.)

let test_standard_suite_size () =
  let suite = Synthetic.standard_suite () in
  check_int "18 synthetic traces" 18 (List.length suite);
  List.iter
    (fun t ->
      check_bool "within Table-2 range" true
        (Trace.min_mbps t >= 6. && Trace.max_mbps t <= 192.))
    suite

let test_standard_suite_distinct_names () =
  let names = List.map Trace.name (Synthetic.standard_suite ()) in
  check_int "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* ------------------------------------------------------------------ *)
(* LTE generator (Figs. 18-19) *)

let test_lte_deterministic () =
  let a = Lte.generate ~name:"a" ~seed:5 ~duration_ms:5000 () in
  let b = Lte.generate ~name:"b" ~seed:5 ~duration_ms:5000 () in
  for ms = 0 to 4999 do
    if Trace.mbps_at a ms <> Trace.mbps_at b ms then
      Alcotest.failf "diverges at %d" ms
  done

let test_lte_seed_changes_trace () =
  let a = Lte.generate ~name:"a" ~seed:1 ~duration_ms:5000 () in
  let b = Lte.generate ~name:"b" ~seed:2 ~duration_ms:5000 () in
  let differs = ref false in
  for ms = 0 to 4999 do
    if Trace.mbps_at a ms <> Trace.mbps_at b ms then differs := true
  done;
  check_bool "different seeds differ" true !differs

let test_lte_is_variable () =
  let t = Lte.generate ~name:"t" ~seed:3 ~duration_ms:30_000 () in
  check_bool "has fades" true (Trace.min_mbps t < 10.);
  check_bool "has peaks" true (Trace.max_mbps t > 30.);
  check_bool "positive" true (Trace.min_mbps t > 0.)

let test_lte_suite () =
  let suite = Lte.standard_suite () in
  check_int "4 real-world-like traces" 4 (List.length suite);
  List.iter
    (fun t -> check_bool "nonempty" true (Trace.duration_ms t > 0))
    suite

(* ------------------------------------------------------------------ *)
(* Suite *)

let test_full_suite_22 () =
  check_int "22 traces" 22 (List.length (Suite.all ()))

let test_suite_categories () =
  let all = Suite.all () in
  let synth, real =
    List.partition (fun t -> Suite.category_of t = Suite.Synthetic) all
  in
  check_int "18 synthetic" 18 (List.length synth);
  check_int "4 real" 4 (List.length real)

let suite =
  [
    ("segment lookup", `Quick, test_segments_lookup);
    ("wraparound replay", `Quick, test_wraparound);
    ("duration/name", `Quick, test_duration_name);
    ("aggregates", `Quick, test_aggregates);
    ("constant trace", `Quick, test_constant);
    ("packets per ms", `Quick, test_packets_per_ms);
    ("invalid segments", `Quick, test_invalid_segments);
    ("of_mbps_array", `Quick, test_of_mbps_array);
    ("mahimahi render", `Quick, test_mahimahi_render);
    ("mahimahi rate roundtrip", `Quick, test_mahimahi_roundtrip_rate);
    ("mahimahi file roundtrip", `Quick, test_mahimahi_file_roundtrip);
    ("mahimahi rejects garbage", `Quick, test_mahimahi_rejects_garbage);
    ("step fluctuation alternates", `Quick, test_step_fluctuation_alternates);
    ("step bounds", `Quick, test_step_bounds);
    ("ramp-drop shape", `Quick, test_ramp_drop_shape);
    ("triangle shape", `Quick, test_triangle_shape);
    ("synthetic suite size/ranges", `Quick, test_standard_suite_size);
    ("synthetic names unique", `Quick, test_standard_suite_distinct_names);
    ("lte deterministic", `Quick, test_lte_deterministic);
    ("lte seed sensitivity", `Quick, test_lte_seed_changes_trace);
    ("lte variability", `Quick, test_lte_is_variable);
    ("lte suite of 4", `Quick, test_lte_suite);
    ("full suite of 22", `Quick, test_full_suite_22);
    ("suite categories", `Quick, test_suite_categories);
  ]
