(* Tests for the deterministic domain pool and every parallel path built
   on it: pool lifecycle, chunk decomposition, and bit-exact agreement of
   the parallel GEMM / certification / evaluation kernels with their
   sequential references at domain counts 1, 2 and 4. *)

open Canopy_util
module Mat = Canopy_tensor.Mat
module Vec = Canopy_tensor.Vec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run [f] with a fresh default pool of [d] domains, restoring the
   previous default (and reaping the temporary pool) afterwards. *)
let with_default_pool d f =
  let saved = Pool.default () in
  let pool = Pool.create ~domains:d () in
  Pool.set_default pool;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default saved;
      Pool.shutdown pool)
    (fun () -> f ())

(* Force the GEMM/certify grain low enough that even test-sized
   workloads chunk, restoring the production grain afterwards. *)
let with_tiny_grain ?(chunk_flops = 1) f =
  let min_flops, saved_chunk = Mat.parallel_grain () in
  Mat.set_parallel_grain ~min_flops:1 ~chunk_flops;
  Fun.protect
    ~finally:(fun () ->
      Mat.set_parallel_grain ~min_flops ~chunk_flops:saved_chunk)
    f

(* ------------------------------------------------------------------ *)
(* Pool lifecycle *)

let test_pool_create_domains () =
  let p = Pool.create ~domains:3 () in
  check_int "requested size" 3 (Pool.domains p);
  Pool.shutdown p;
  let p1 = Pool.create ~domains:(-2) () in
  check_int "clamped to 1" 1 (Pool.domains p1);
  Pool.shutdown p1

let test_pool_reused_across_calls () =
  let p = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      (* Many regions on one pool: workers are spawned once and survive
         between jobs; each region still covers every index exactly
         once. *)
      for _ = 1 to 20 do
        let hits = Array.make 23 0 in
        Pool.parallel_for_chunks ~pool:p ~chunk:4 23 (fun ~lo ~hi ->
            for i = lo to hi - 1 do
              hits.(i) <- hits.(i) + 1
            done);
        Array.iteri
          (fun i h -> check_int (Printf.sprintf "index %d once" i) 1 h)
          hits
      done)

let test_pool_chunk_boundaries () =
  (* The chunk list is a pure function of (n, chunk): ceil(n/chunk)
     half-open ranges, the last one short. *)
  let p = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let ranges = ref [] in
      Pool.parallel_for_chunks ~pool:p ~chunk:4 10 (fun ~lo ~hi ->
          ranges := (lo, hi) :: !ranges);
      Alcotest.(check (list (pair int int)))
        "ceil(10/4) ranges in order"
        [ (0, 4); (4, 8); (8, 10) ]
        (List.rev !ranges);
      Pool.parallel_for_chunks ~pool:p ~chunk:5 0 (fun ~lo:_ ~hi:_ ->
          Alcotest.fail "no chunks for n = 0"))

let test_pool_invalid_args () =
  let p = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.check_raises "chunk <= 0"
        (Invalid_argument "Pool.parallel_for_chunks: chunk") (fun () ->
          Pool.parallel_for_chunks ~pool:p ~chunk:0 4 (fun ~lo:_ ~hi:_ -> ()));
      Alcotest.check_raises "n < 0"
        (Invalid_argument "Pool.parallel_for_chunks: n") (fun () ->
          Pool.parallel_for_chunks ~pool:p ~chunk:1 (-1) (fun ~lo:_ ~hi:_ ->
              ())))

let test_pool_worker_exception_propagates () =
  let p = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      (* The lowest-index failure wins, whichever domain ran it. *)
      check_bool "failure surfaces" true
        (match
           Pool.parallel_for_chunks ~pool:p ~chunk:1 8 (fun ~lo ~hi:_ ->
               if lo >= 5 then failwith (Printf.sprintf "chunk %d" lo))
         with
        | () -> false
        | exception Failure msg -> msg = "chunk 5");
      (* ... and the pool is still usable afterwards. *)
      let sum = ref 0 in
      let m = Mutex.create () in
      Pool.parallel_for_chunks ~pool:p ~chunk:2 10 (fun ~lo ~hi ->
          let s = ref 0 in
          for i = lo to hi - 1 do
            s := !s + i
          done;
          Mutex.lock m;
          sum := !sum + !s;
          Mutex.unlock m);
      check_int "usable after failure" 45 !sum)

let test_pool_multiple_failures_lowest_wins () =
  let p = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      (* Every chunk fails concurrently: the surfaced exception must be
         the lowest-numbered chunk's, not whichever domain lost the
         race to raise first. *)
      check_bool "all chunks fail, chunk 0 wins" true
        (match
           Pool.parallel_for_chunks ~pool:p ~chunk:1 8 (fun ~lo ~hi:_ ->
               failwith (Printf.sprintf "chunk %d" lo))
         with
        | () -> false
        | exception Failure msg -> msg = "chunk 0");
      (* A scattered subset of failures: still the lowest index. *)
      check_bool "scattered failures, lowest wins" true
        (match
           Pool.parallel_for_chunks ~pool:p ~chunk:1 10 (fun ~lo ~hi:_ ->
               if lo = 3 || lo = 6 || lo = 9 then
                 failwith (Printf.sprintf "chunk %d" lo))
         with
        | () -> false
        | exception Failure msg -> msg = "chunk 3");
      (* Repeated failing regions must not wedge the pool: workers park
         and re-arm cleanly every time. *)
      for round = 1 to 5 do
        (match
           Pool.parallel_for_chunks ~pool:p ~chunk:2 12 (fun ~lo ~hi:_ ->
               if lo >= 4 then failwith "boom")
         with
        | () -> Alcotest.fail "region should have failed"
        | exception Failure _ -> ());
        let hits = Array.make 12 0 in
        Pool.parallel_for_chunks ~pool:p ~chunk:3 12 (fun ~lo ~hi ->
            for i = lo to hi - 1 do
              hits.(i) <- hits.(i) + 1
            done);
        Array.iteri
          (fun i h ->
            check_int (Printf.sprintf "round %d index %d once" round i) 1 h)
          hits
      done)

let test_pool_nested_rejected () =
  let p = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      Alcotest.check_raises "nested parallel region"
        (Invalid_argument "Pool.parallel_for_chunks: nested parallel call")
        (fun () ->
          Pool.parallel_for_chunks ~pool:p ~chunk:1 4 (fun ~lo:_ ~hi:_ ->
              Pool.parallel_for_chunks ~pool:p ~chunk:1 2 (fun ~lo:_ ~hi:_ ->
                  ())));
      (* in_task is visible to kernels inside a task, reset outside. *)
      check_bool "outside" false (Pool.in_task ());
      let seen = ref false in
      Pool.parallel_for_chunks ~pool:p ~chunk:4 4 (fun ~lo:_ ~hi:_ ->
          seen := Pool.in_task ());
      check_bool "inside" true !seen;
      check_bool "reset" false (Pool.in_task ()))

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~domains:2 () in
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Pool: pool has been shut down") (fun () ->
      Pool.parallel_for_chunks ~pool:p ~chunk:1 3 (fun ~lo:_ ~hi:_ -> ()))

let test_pool_map_order () =
  let p = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown p)
    (fun () ->
      let input = Array.init 57 (fun i -> i) in
      let out = Pool.map ~pool:p (fun x -> (x * x) + 1) input in
      Alcotest.(check (array int))
        "order preserved"
        (Array.map (fun x -> (x * x) + 1) input)
        out;
      Alcotest.(check (list string))
        "map_list preserves order" [ "a!"; "b!"; "c!" ]
        (Pool.map_list ~pool:p (fun s -> s ^ "!") [ "a"; "b"; "c" ]);
      Alcotest.(check (array int)) "empty" [||] (Pool.map ~pool:p Fun.id [||]))

(* ------------------------------------------------------------------ *)
(* Bit-exact GEMM: parallel row chunking vs the sequential kernels *)

let mk_mat rng rows cols =
  Mat.init ~rows ~cols (fun _ _ -> Prng.uniform rng (-2.) 2.)

let bits m = Array.map Int64.bits_of_float (Mat.raw m)

(* Shapes chosen to straddle the parallel gates: rows <= 4 never go
   parallel; 5 exercises a single 4-row block plus remainder rows; the
   rest hit chunk boundaries at and off multiples of the 4-aligned
   chunk size. *)
let gemm_shapes = [ (3, 5, 7); (5, 3, 4); (8, 6, 6); (9, 7, 5); (37, 13, 11) ]

let gemm_cases ~domain_counts ~chunk_flops run =
  List.iter
    (fun (m, k, n) ->
      (* Sequential reference: a 1-domain default pool never dispatches. *)
      let reference = with_default_pool 1 (fun () -> run (m, k, n)) in
      List.iter
        (fun d ->
          let got =
            with_default_pool d (fun () ->
                with_tiny_grain ~chunk_flops (fun () -> run (m, k, n)))
          in
          check_bool
            (Printf.sprintf "%dx%dx%d bit-exact at %d domains" m k n d)
            true
            (reference = got))
        domain_counts)
    gemm_shapes

let test_mat_mul_into_bit_exact () =
  gemm_cases ~domain_counts:[ 1; 2; 4 ] ~chunk_flops:1 (fun (m, k, n) ->
      let rng = Prng.create ((m * 1000) + (k * 10) + n) in
      let a = mk_mat rng m k and b = mk_mat rng k n in
      let dst = Mat.create ~rows:m ~cols:n in
      Mat.mat_mul_into ~dst a b;
      bits dst)

let test_mat_mul_nt_bias_into_bit_exact () =
  gemm_cases ~domain_counts:[ 1; 2; 4 ] ~chunk_flops:1 (fun (m, k, n) ->
      let rng = Prng.create ((m * 999) + (k * 7) + n) in
      let a = mk_mat rng m k and b = mk_mat rng n k in
      let bias = Array.init n (fun _ -> Prng.uniform rng (-1.) 1.) in
      let dst = Mat.create ~rows:m ~cols:n in
      Mat.mat_mul_nt_bias_into ~dst a b bias;
      bits dst)

let test_mat_mul_tn_acc_bit_exact () =
  (* tn_acc chunks over a.cols (the dst rows) and accumulates into a
     pre-seeded dst, so seed it identically on both sides. *)
  gemm_cases ~domain_counts:[ 1; 2; 4 ] ~chunk_flops:1 (fun (m, k, n) ->
      let rng = Prng.create ((m * 463) + (k * 31) + n) in
      let a = mk_mat rng m k and b = mk_mat rng m n in
      let dst = Mat.init ~rows:k ~cols:n (fun i j -> float_of_int (i - j)) in
      Mat.mat_mul_tn_acc ~dst a b;
      bits dst)

let test_gemm_bit_exact_coarser_chunks () =
  (* A larger chunk grain moves the chunk boundaries; results must not. *)
  gemm_cases ~domain_counts:[ 2 ] ~chunk_flops:2048 (fun (m, k, n) ->
      let rng = Prng.create ((m * 217) + (k * 5) + n) in
      let a = mk_mat rng m k and b = mk_mat rng n k in
      let bias = Array.init n (fun _ -> Prng.uniform rng (-1.) 1.) in
      let dst = Mat.create ~rows:m ~cols:n in
      Mat.mat_mul_nt_bias_into ~dst a b bias;
      bits dst)

let test_packed_and_blocked_gemm_scratch_bit_exact () =
  (* Shapes big enough to trip the per-domain scratch machinery: >= 3
     rows engage the packed-B panel of the nt kernels, > 128 shared dims
     span multiple k-blocks of
     [mat_mul_into]. Each domain count
     gets a fresh pool (cold arenas) and runs the kernel twice — the
     second call reuses warm panels, and both runs must equal the
     1-domain reference bit for bit. *)
  let nt_run (m, k, n) () =
    let rng = Prng.create ((m * 131) + (k * 17) + n) in
    let a = mk_mat rng m k and b = mk_mat rng n k in
    let bias = Array.init n (fun _ -> Prng.uniform rng (-1.) 1.) in
    let dst = Mat.create ~rows:m ~cols:n in
    Mat.mat_mul_nt_bias_into ~dst a b bias;
    bits dst
  in
  let mm_run (m, k, n) () =
    let rng = Prng.create ((m * 911) + (k * 3) + n) in
    let a = mk_mat rng m k and b = mk_mat rng k n in
    let dst = Mat.create ~rows:m ~cols:n in
    Mat.mat_mul_into ~dst a b;
    bits dst
  in
  List.iter
    (fun (label, run) ->
      let reference = with_default_pool 1 run in
      List.iter
        (fun d ->
          with_default_pool d (fun () ->
              with_tiny_grain (fun () ->
                  let cold = run () and warm = run () in
                  check_bool
                    (Printf.sprintf "%s cold arena at %d domains" label d)
                    true (reference = cold);
                  check_bool
                    (Printf.sprintf "%s warm arena at %d domains" label d)
                    true (reference = warm))))
        [ 1; 2; 4 ])
    [
      ("packed nt 24x20x16", nt_run (24, 20, 16));
      ("packed nt 37x33x21", nt_run (37, 33, 21));
      ("blocked mm 16x300x9", mm_run (16, 300, 9));
      ("blocked mm 24x260x17", mm_run (24, 260, 17));
    ]

let test_td3_parallel_update_bit_exact () =
  (* The sharded TD3 update (per-shard gradient shadows + fixed-shape
     tree reduction) against the 1-domain run: two full gradient steps
     (policy delay 2, so the second moves the actor and targets) from
     an identical snapshot, at 1, 2 and 4 domains; both updates in one
     pool also exercise warm shadow reuse. All learned parameters of
     all six networks must agree bit for bit. *)
  let module Td3 = Canopy_rl.Td3 in
  let rng = Prng.create 211 in
  let cfg =
    {
      (Td3.default_config ~state_dim:5 ~action_dim:2) with
      Td3.hidden = 24;
      batch_size = 64;
      warmup = 64;
      buffer_capacity = 512;
    }
  in
  let agent = Td3.create ~rng cfg in
  let data = Prng.create 212 in
  let rv n = Array.init n (fun _ -> Prng.uniform data (-1.) 1.) in
  for i = 1 to 300 do
    Td3.observe agent
      {
        Canopy_rl.Replay_buffer.state = rv 5;
        action = rv 2;
        reward = Prng.uniform data (-1.) 1.;
        next_state = rv 5;
        terminal = i mod 37 = 0;
        truncated = i mod 53 = 0;
      }
  done;
  let snap0 = Td3.snapshot agent in
  let run () =
    Td3.restore agent snap0;
    Td3.update agent;
    Td3.update agent;
    let snap = Td3.snapshot agent in
    List.concat_map
      (fun (_, net) ->
        List.map
          (fun (v, _) -> Array.map Int64.bits_of_float v)
          (Canopy_nn.Mlp.params net))
      snap.Td3.nets
  in
  let reference = with_default_pool 1 run in
  List.iter
    (fun d ->
      let got = with_default_pool d (fun () -> with_tiny_grain run) in
      check_bool
        (Printf.sprintf "td3 parameters identical at %d domains" d)
        true (reference = got))
    [ 2; 4 ]

(* The grain is a constant, so the chunk plan of a shape is the same on
   every host and at every pool width above 1. 4_608 flops per row is
   the TD3 critic's first layer (36 inputs, 64 units) at batch 64; its
   16-row shard stays sequential. *)
let test_chunk_plans_depend_only_on_shape () =
  with_default_pool 2 (fun () ->
      Alcotest.(check (pair int int))
        "grain" (262_144, 65_536) (Mat.parallel_grain ());
      Alcotest.(check (option int))
        "batch 64" (Some 16)
        (Mat.plan_chunks ~rows:64 ~row_flops:4_608);
      Alcotest.(check (option int))
        "16-row shard" None
        (Mat.plan_chunks ~rows:16 ~row_flops:4_608))

(* ------------------------------------------------------------------ *)
(* Certification and evaluation: parallel runs vs 1-domain reference *)

let history = 5
let state_dim = history * Canopy_orca.Observation.feature_count

let make_actor seed =
  let rng = Prng.create seed in
  Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden:16 ~out_dim:1

let certify_once engine () =
  let actor = make_actor 5 in
  let state = Array.init state_dim (fun i -> 0.3 +. (0.01 *. float_of_int i)) in
  Canopy.Certify.certify ~engine ~domain:Canopy.Certify.Box_domain ~actor
    ~property:(Canopy.Property.performance ()) ~n_components:30 ~history
    ~state ~cwnd_tcp:80. ~prev_cwnd:70. ()

let test_certify_bit_exact_across_pools () =
  let reference = with_default_pool 1 (certify_once Canopy.Certify.Batched) in
  List.iter
    (fun d ->
      let got =
        with_default_pool d (fun () ->
            with_tiny_grain (certify_once Canopy.Certify.Batched))
      in
      check_bool
        (Printf.sprintf "certificate identical at %d domains" d)
        true (reference = got))
    [ 2; 4 ]

let test_certify_adaptive_bit_exact_across_pools () =
  let run () =
    let actor = make_actor 11 in
    let state = Array.make state_dim 0.4 in
    Canopy.Certify.certify_adaptive ~engine:Canopy.Certify.Batched
      ~actor
      ~property:(Canopy.Property.performance ())
      ~max_components:24 ~history ~state ~cwnd_tcp:100. ~prev_cwnd:95. ()
  in
  let reference = with_default_pool 1 run in
  let got = with_default_pool 2 (fun () -> with_tiny_grain run) in
  check_bool "adaptive bisection identical" true (reference = got)

let test_anet_and_zonotope_bit_exact_across_pools () =
  let module Anet = Canopy_absint.Anet in
  let module Box = Canopy_absint.Box in
  let module Interval = Canopy_absint.Interval in
  let actor = make_actor 23 in
  let ir = Anet.of_mlp actor in
  let rng = Prng.create 29 in
  let boxes =
    Array.init 40 (fun _ ->
        Box.of_intervals
          (Array.init state_dim (fun _ ->
               let c = Prng.uniform rng (-0.5) 0.5 in
               Interval.make (c -. 0.05) (c +. 0.05))))
  in
  (* Certificate-shaped: one point state, only the delay dimensions
     symbolic, so every chunk skips the same dead radius columns. *)
  let certificate_boxes =
    let state = Array.init state_dim (fun _ -> Prng.uniform rng 0. 1.) in
    let delay = Canopy.Certify.delay_indices ~history in
    Array.init 40 (fun k ->
        let lo = 0.025 *. float_of_int k in
        Box.of_intervals
          (Array.mapi
             (fun j x ->
               if List.mem j delay then Interval.make lo (lo +. 0.025)
               else Interval.of_point x)
             state))
  in
  let run f boxes () =
    Array.map
      (fun iv ->
        (Int64.bits_of_float (Interval.lo iv), Int64.bits_of_float (Interval.hi iv)))
      (f ir boxes)
  in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun (shape, boxes) ->
          let reference = with_default_pool 1 (run f boxes) in
          let got =
            with_default_pool 2 (fun () -> with_tiny_grain (run f boxes))
          in
          check_bool
            (Printf.sprintf "%s intervals identical (%s)" name shape)
            true (reference = got))
        [ ("random", boxes); ("certificate", certificate_boxes) ])
    [
      ("anet", Anet.output_intervals);
      ("zonotope", Canopy_absint.Zonotope.output_intervals_anet);
    ]

let test_eval_sweep_bit_exact_across_pools () =
  let module Eval = Canopy.Eval in
  let links =
    List.map
      (Eval.link ~min_rtt_ms:40)
      (List.filteri
         (fun i _ -> i < 3)
         (Canopy_trace.Suite.all ~duration_ms:1_500 ()))
  in
  let tasks =
    List.map (fun l () -> Eval.eval_tcp ~name:"cubic" Eval.cubic_scheme l) links
  in
  let run () = Eval.run_tasks tasks in
  let reference = with_default_pool 1 run in
  let got = with_default_pool 2 run in
  check_bool "sweep results identical" true (reference = got);
  check_int "one result per task" (List.length tasks) (List.length got)

let test_trainer_bit_exact_across_pools () =
  let module Trainer = Canopy.Trainer in
  let config () =
    let envs =
      Trainer.env_pool ~n:2 ~bw_range_mbps:(12., 24.) ~rtt_range_ms:(20, 30)
        ~duration_ms:1500 ~seed:3 ()
    in
    { (Trainer.default_config ~total_steps:40 ~envs ()) with log_every = 20 }
  in
  let curve () =
    let _, epochs = Trainer.train (config ()) in
    List.map
      (fun (e : Trainer.epoch) -> Int64.bits_of_float e.Trainer.raw_reward)
      epochs
  in
  let reference = with_default_pool 1 curve in
  let got = with_default_pool 2 (fun () -> with_tiny_grain curve) in
  check_bool "training curve identical" true (reference = got)

let suite =
  [
    ("pool create/domains", `Quick, test_pool_create_domains);
    ("pool reused across calls", `Quick, test_pool_reused_across_calls);
    ("pool chunk boundaries", `Quick, test_pool_chunk_boundaries);
    ("pool invalid args", `Quick, test_pool_invalid_args);
    ( "pool worker exception propagates",
      `Quick,
      test_pool_worker_exception_propagates );
    ( "pool concurrent failures, lowest wins",
      `Quick,
      test_pool_multiple_failures_lowest_wins );
    ("pool nested call rejected", `Quick, test_pool_nested_rejected);
    ("pool shutdown idempotent", `Quick, test_pool_shutdown_idempotent);
    ("pool map preserves order", `Quick, test_pool_map_order);
    ("mat_mul_into bit-exact", `Quick, test_mat_mul_into_bit_exact);
    ( "mat_mul_nt_bias_into bit-exact",
      `Quick,
      test_mat_mul_nt_bias_into_bit_exact );
    ("mat_mul_tn_acc bit-exact", `Quick, test_mat_mul_tn_acc_bit_exact);
    ("gemm bit-exact, coarser chunks", `Quick, test_gemm_bit_exact_coarser_chunks);
    ( "packed/blocked gemm scratch bit-exact",
      `Quick,
      test_packed_and_blocked_gemm_scratch_bit_exact );
    ("td3 parallel update bit-exact", `Quick, test_td3_parallel_update_bit_exact);
    ( "chunk plans depend only on shape",
      `Quick,
      test_chunk_plans_depend_only_on_shape );
    ("certify bit-exact across pools", `Quick, test_certify_bit_exact_across_pools);
    ( "certify_adaptive bit-exact across pools",
      `Quick,
      test_certify_adaptive_bit_exact_across_pools );
    ( "anet/zonotope bit-exact across pools",
      `Quick,
      test_anet_and_zonotope_bit_exact_across_pools );
    ( "eval sweep bit-exact across pools",
      `Quick,
      test_eval_sweep_bit_exact_across_pools );
    ("trainer bit-exact across pools", `Slow, test_trainer_bit_exact_across_pools);
  ]
