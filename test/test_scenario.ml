(* Tests for the adversarial scenario engine: the parameterized space
   and its deterministic compiler, the random+CEM worst-case search
   (bit-reproducible from its seed at any domain count), and the
   archived-corpus round trip that makes discovered worst cases
   replayable. *)

module Space = Canopy_scenario.Space
module Search = Canopy_scenario.Search
module Corpus = Canopy_scenario.Corpus
module Trace = Canopy_trace.Trace
module Prng = Canopy_util.Prng
module Pool = Canopy_util.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bits = Array.map Int64.bits_of_float

(* Same helper as test_pool: a fresh default pool of [d] domains for
   the duration of [f], previous default restored afterwards. *)
let with_default_pool d f =
  let saved = Pool.default () in
  let pool = Pool.create ~domains:d () in
  Pool.set_default pool;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default saved;
      Pool.shutdown pool)
    (fun () -> f ())

let with_tmp_dir f =
  let dir = Filename.temp_file "canopy-scn" "" in
  Sys.remove dir;
  Canopy_util.Atomic_file.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun e -> Sys.remove (Filename.concat dir e))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let untrained_actor ?(seed = 1) () =
  Canopy_nn.Mlp.actor ~rng:(Prng.create seed)
    ~in_dim:(5 * Canopy_orca.Observation.feature_count)
    ~hidden:8 ~out_dim:1

(* ------------------------------------------------------------------ *)
(* Space *)

let test_space_vector_roundtrip () =
  check_int "n_dims matches dims" (Array.length Space.dims) Space.n_dims;
  let rng = Prng.create 7 in
  for _ = 1 to 20 do
    let v = Space.sample rng in
    check_int "sample length" Space.n_dims (Array.length v);
    Array.iteri
      (fun i x ->
        let d = Space.dims.(i) in
        check_bool (d.Space.dim_name ^ " in box") true
          (x >= d.Space.lo && x <= d.Space.hi))
      v;
    (* in-box vectors survive decode/encode bit for bit *)
    check_bool "of_vector/to_vector roundtrip" true
      (bits (Space.to_vector (Space.of_vector v)) = bits v)
  done;
  check_bool "wrong length rejected" true
    (match Space.of_vector [| 1.; 2. |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_space_clamp () =
  let below = Array.map (fun d -> d.Space.lo -. 10.) Space.dims in
  let above = Array.map (fun d -> d.Space.hi +. 10.) Space.dims in
  check_bool "clamp to lower bounds" true
    (bits (Space.clamp below) = bits (Array.map (fun d -> d.Space.lo) Space.dims));
  check_bool "clamp to upper bounds" true
    (bits (Space.clamp above) = bits (Array.map (fun d -> d.Space.hi) Space.dims));
  (* of_vector clamps too: an out-of-box vector decodes to the same
     params as its clamped image *)
  check_bool "of_vector clamps" true
    (Space.to_vector (Space.of_vector above) = Space.clamp above)

(* Float.min/Float.max pass a NaN through, and round_pos would turn it
   into 0 ms: a NaN coordinate fails instead, in clamp and in
   of_vector. *)
let test_space_clamp_rejects_nan () =
  let v = Space.sample (Prng.create 3) in
  v.(7) <- Float.nan;
  Alcotest.check_raises "clamp" (Invalid_argument "Space.clamp: NaN coordinate")
    (fun () -> ignore (Space.clamp v));
  Alcotest.check_raises "of_vector"
    (Invalid_argument "Space.clamp: NaN coordinate") (fun () ->
      ignore (Space.of_vector v))

let trace_bits t =
  Array.init (Trace.duration_ms t) (fun ms ->
      Int64.bits_of_float (Trace.mbps_at t ms))

let compiled_bits (c : Space.compiled) =
  ( trace_bits c.Space.trace,
    c.Space.impairments,
    c.Space.c_min_rtt_ms,
    c.Space.arrivals )

let test_compile_deterministic () =
  let p = Space.of_vector (Space.sample (Prng.create 11)) in
  let a = Space.compile ~duration_ms:4_000 ~seed:5 p in
  let b = Space.compile ~duration_ms:4_000 ~seed:5 p in
  check_bool "same (params,seed) -> same scenario" true
    (compiled_bits a = compiled_bits b);
  let c = Space.compile ~duration_ms:4_000 ~seed:6 p in
  check_bool "different seed -> different trace" true
    (compiled_bits a <> compiled_bits c);
  check_int "cross-flow arrivals" Space.n_cross_flows
    (Array.length a.Space.arrivals);
  check_bool "adversarial suite category" true
    (Canopy_trace.Suite.category_of a.Space.trace
    = Canopy_trace.Suite.Adversarial)

(* ------------------------------------------------------------------ *)
(* Search *)

let tiny_config =
  {
    Search.seed = 3;
    duration_ms = 1_200;
    history = 5;
    random_candidates = 4;
    cem_rounds = 1;
    cem_batch = 3;
    elite_frac = 0.5;
  }

let search_bits (r : Search.result) =
  ( r.Search.worst.Search.idx,
    bits r.Search.worst.Search.vector,
    r.Search.worst.Search.scn_seed,
    Int64.bits_of_float r.Search.worst.Search.score,
    r.Search.evaluated,
    List.map Int64.bits_of_float r.Search.round_best )

let test_search_deterministic_across_domains () =
  let actor = untrained_actor () in
  let run () =
    search_bits (Search.search tiny_config ~actor Search.Min_utility)
  in
  let want = with_default_pool 1 run in
  check_int "evaluated = random + rounds*batch" 7
    (let _, _, _, _, n, _ = want in
     n);
  check_bool "repeat run identical" true (with_default_pool 1 run = want);
  check_bool "domains 2 identical" true (with_default_pool 2 run = want)

(* The coexistence objective runs the scenario's impairments on the
   shared link: zeroing them moves the score. The arrivals stay early
   enough for all three flows to deliver within the episode. *)
let test_jain_scores_impairments () =
  let actor = untrained_actor () in
  let p =
    {
      (Space.of_vector (Space.sample (Prng.create 11))) with
      Space.jitter_ms = 6.;
      loss = 0.03;
      reorder_prob = 0.1;
      reorder_ms = 12.;
      arrival_spread_ms = 200.;
      min_rtt_ms = 40.;
    }
  in
  let c = Space.compile ~duration_ms:1_200 ~seed:5 p in
  let score c =
    Search.score_compiled ~actor ~history:5 ~duration_ms:1_200 Search.Min_jain
      c
  in
  let impaired = score c in
  let clean =
    score { c with Space.impairments = Canopy_netsim.Env.no_impairments }
  in
  check_bool "scores finite" true
    (Float.is_finite impaired && Float.is_finite clean);
  check_bool "impairments move the jain score" true
    (Int64.bits_of_float impaired <> Int64.bits_of_float clean)

let test_jain_search_reproducible () =
  let actor = untrained_actor () in
  let run () = search_bits (Search.search tiny_config ~actor Search.Min_jain) in
  let want = run () in
  check_bool "repeat run identical" true (run () = want);
  check_bool "domains 2 identical" true (with_default_pool 2 run = want)

let test_objective_names () =
  List.iter
    (fun name ->
      check_bool (name ^ " roundtrip") true
        (Search.objective_name (Search.objective_of_name name) = name))
    [ "utility"; "p95"; "violation"; "jain" ];
  check_bool "unknown objective rejected" true
    (match Search.objective_of_name "nope" with
    | _ -> false
    | exception Failure _ -> true)

let test_suite_worst_is_suite_member () =
  let actor = untrained_actor () in
  let name, score =
    Search.suite_worst ~duration_ms:1_200 ~history:5 ~actor Search.Min_utility
  in
  check_bool "worst is a suite member" true
    (List.exists
       (fun t -> Trace.name t = name)
       (Canopy_trace.Suite.all ~duration_ms:1_200 ()));
  check_bool "score finite" true (Float.is_finite score)

(* ------------------------------------------------------------------ *)
(* Corpus *)

let test_corpus_roundtrip () =
  with_tmp_dir (fun dir ->
      let actor = untrained_actor () in
      let r = Search.search tiny_config ~actor Search.Min_utility in
      let record =
        Corpus.of_search ~search_seed:tiny_config.Search.seed
          Search.Min_utility r.Search.worst
      in
      let path = Corpus.save ~dir ~duration_ms:1_200 record in
      check_bool "record file written" true (Sys.file_exists path);
      check_bool "trace file written" true
        (Sys.file_exists (Filename.concat dir (record.Corpus.rec_name ^ ".trace")));
      let back = Corpus.load_file path in
      check_bool "record round-trips bit-exact" true
        (back.Corpus.rec_name = record.Corpus.rec_name
        && back.Corpus.objective = record.Corpus.objective
        && Int64.bits_of_float back.Corpus.score
           = Int64.bits_of_float record.Corpus.score
        && back.Corpus.search_seed = record.Corpus.search_seed
        && back.Corpus.scn_seed = record.Corpus.scn_seed
        && bits back.Corpus.vector = bits record.Corpus.vector);
      (* the reloaded record recompiles to the exact scenario the search
         evaluated, and re-scores to the exact archived score *)
      check_bool "recompile bit-identical" true
        (compiled_bits (Corpus.compiled ~duration_ms:1_200 back)
        = compiled_bits (Corpus.compiled ~duration_ms:1_200 record));
      let rescore =
        Search.score_compiled
          ~refute_rng:(Prng.create back.Corpus.scn_seed)
          ~actor ~history:5 ~duration_ms:1_200 Search.Min_utility
          (Corpus.compiled ~duration_ms:1_200 back)
      in
      check_bool "replayed score bit-equal" true
        (Int64.bits_of_float rescore
        = Int64.bits_of_float record.Corpus.score);
      match Corpus.load_dir dir with
      | [ only ] ->
          check_bool "load_dir finds the record" true
            (only.Corpus.rec_name = record.Corpus.rec_name)
      | other ->
          Alcotest.failf "load_dir: expected 1 record, got %d"
            (List.length other))

let test_corpus_load_dir_missing () =
  check_bool "absent dir -> []" true
    (Corpus.load_dir "/nonexistent/canopy-scenarios" = [])

let test_corpus_rejects_garbage () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "bogus.scn" in
      Canopy_util.Atomic_file.write path "not a scenario\n";
      check_bool "bad magic rejected" true
        (match Corpus.load_file path with
        | _ -> false
        | exception Failure _ -> true))

(* A well-formed record whose one dim is "nan" or "inf" (both of which
   float_of_string accepts) is rejected on load. *)
let test_corpus_rejects_non_finite_dim () =
  with_tmp_dir (fun dir ->
      List.iter
        (fun bad ->
          let path = Filename.concat dir "nonfinite.scn" in
          let dims =
            Array.to_list
              (Array.mapi
                 (fun i d ->
                   Printf.sprintf "dim %s %s" d.Space.dim_name
                     (if i = 7 then bad else Printf.sprintf "%h" d.Space.lo))
                 Space.dims)
          in
          Canopy_util.Atomic_file.write path
            (String.concat "\n"
               ([
                  "canopy-scenario v1";
                  "name adv-test-1";
                  "objective utility";
                  "score -0x1p+0";
                  "search_seed 1";
                  "scn_seed 1";
                ]
               @ dims)
            ^ "\n");
          check_bool (bad ^ " dim rejected") true
            (match Corpus.load_file path with
            | _ -> false
            | exception Failure msg ->
                Test_core.contains_substring msg "non-finite dim loss"))
        [ "nan"; "inf"; "-inf" ])

let test_corpus_env_config () =
  let p = Space.of_vector (Space.sample (Prng.create 13)) in
  let c = Space.compile ~duration_ms:2_000 ~seed:9 p in
  let record =
    {
      Corpus.rec_name = "adv-test-000009";
      objective = "utility";
      score = -1.0;
      search_seed = 1;
      scn_seed = 9;
      vector = Space.to_vector p;
    }
  in
  let cfg = Corpus.env_config ~duration_ms:2_000 record in
  check_int "env min_rtt from scenario" c.Space.c_min_rtt_ms
    cfg.Canopy_orca.Agent_env.min_rtt_ms;
  check_int "env episode length" 2_000 cfg.Canopy_orca.Agent_env.duration_ms;
  check_bool "env impairments from scenario" true
    (cfg.Canopy_orca.Agent_env.impairments = c.Space.impairments);
  check_bool "env trace named after record" true
    (Trace.name cfg.Canopy_orca.Agent_env.trace = "adv-test-000009")

let suite =
  [
    Alcotest.test_case "space: vector roundtrip in box" `Quick
      test_space_vector_roundtrip;
    Alcotest.test_case "space: clamp to bounds" `Quick test_space_clamp;
    Alcotest.test_case "space: clamp rejects NaN" `Quick
      test_space_clamp_rejects_nan;
    Alcotest.test_case "space: compile deterministic" `Quick
      test_compile_deterministic;
    Alcotest.test_case "search: bit-reproducible, domains 1,2" `Quick
      test_search_deterministic_across_domains;
    Alcotest.test_case "search: jain scores impairments" `Quick
      test_jain_scores_impairments;
    Alcotest.test_case "search: jain bit-reproducible from seed" `Quick
      test_jain_search_reproducible;
    Alcotest.test_case "search: objective names" `Quick test_objective_names;
    Alcotest.test_case "search: suite_worst member" `Quick
      test_suite_worst_is_suite_member;
    Alcotest.test_case "corpus: save/load/replay bit-exact" `Quick
      test_corpus_roundtrip;
    Alcotest.test_case "corpus: absent dir" `Quick test_corpus_load_dir_missing;
    Alcotest.test_case "corpus: malformed rejected" `Quick
      test_corpus_rejects_garbage;
    Alcotest.test_case "corpus: non-finite dim rejected" `Quick
      test_corpus_rejects_non_finite_dim;
    Alcotest.test_case "corpus: env_config wiring" `Quick
      test_corpus_env_config;
  ]
