(* Perf benches: each times kernels of the system, probes that its
   parallel paths are bit-identical at every domain count, and writes one
   BENCH_*.json record for [check.exe bench-report] to gate. *)

open Harness

(* ------------------------------------------------------------------ *)
(* kernels: the training step's batched kernels (BENCH_train_step) *)

let kernels () =
  header "kernels: training-step timings";
  let module Td3 = Canopy_rl.Td3 in
  let state_dim = history * Canopy_orca.Observation.feature_count in
  let action_dim = 1 in
  let hidden = 64 in
  let rand_vec rng n =
    let v = Array.make n 0. in
    for i = 0 to n - 1 do
      v.(i) <- Canopy_util.Prng.uniform rng (-1.) 1.
    done;
    v
  in
  (* A TD3 agent past warmup over a synthetic replay buffer, so the
     measured closure is training updates only, no environment in the
     loop. One measured op covers one full policy period —
     [policy_delay] consecutive updates (critics every call, actor and
     target nets on the last) — so every sample does identical work
     whatever phase the agent is in and however many ops bechamel packs
     into it; the table and JSON report per-update times. *)
  let policy_period =
    (Td3.default_config ~state_dim ~action_dim).Td3.policy_delay
  in
  let make_update ~batch_size =
    let rng = Canopy_util.Prng.create 11 in
    let agent =
      Td3.create ~rng
        {
          (Td3.default_config ~state_dim ~action_dim) with
          hidden;
          batch_size;
          warmup = batch_size;
          buffer_capacity = 4_096;
        }
    in
    let data = Canopy_util.Prng.create 13 in
    for _ = 1 to 1_024 do
      Td3.observe agent
        {
          Canopy_rl.Replay_buffer.state = rand_vec data state_dim;
          action = rand_vec data action_dim;
          reward = Canopy_util.Prng.uniform data (-1.) 1.;
          next_state = rand_vec data state_dim;
          terminal = false;
          truncated = false;
        }
    done;
    fun () ->
      for _ = 1 to policy_period do
        Td3.update agent
      done
  in
  (* The single-pass rows cycle through [batches] distinct seeded
     minibatches, as training feeds a fresh one to every pass: with one
     fixed matrix the branch predictor learns its sign pattern, and the
     rows would hide what mispredicted element-wise passes cost. *)
  let batches = 16 in
  let cycle ~seed ~batch_size ~cols =
    let rng = Canopy_util.Prng.create seed in
    let inputs =
      Array.init batches (fun _ ->
          Mat.init ~rows:batch_size ~cols (fun _ _ ->
              Canopy_util.Prng.uniform rng (-1.) 1.))
    in
    let next = ref 0 in
    fun () ->
      let k = !next in
      next := (k + 1) mod batches;
      (k, inputs.(k))
  in
  let make_actor_forward ~batch_size =
    let rng = Canopy_util.Prng.create 17 in
    let actor =
      Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden ~out_dim:action_dim
    in
    let states = cycle ~seed:18 ~batch_size ~cols:state_dim in
    let dst = Mat.create ~rows:batch_size ~cols:action_dim in
    fun () -> Canopy_nn.Mlp.forward_batch ~dst actor (snd (states ()))
  in
  let make_critic_fit ~batch_size =
    let rng = Canopy_util.Prng.create 19 in
    let critic = Canopy_nn.Mlp.critic ~rng ~state_dim ~action_dim ~hidden in
    let opt = Canopy_nn.Optimizer.adam ~lr:1e-3 () in
    let inputs = cycle ~seed:20 ~batch_size ~cols:(state_dim + action_dim) in
    let targets =
      Array.init batches (fun k ->
          Array.init batch_size (fun i ->
              Float.cos (float_of_int ((k * batch_size) + i))))
    in
    let inv_n = 1. /. float_of_int batch_size in
    let ws = Canopy_nn.Mlp.workspace critic in
    fun () ->
      let k, inputs = inputs () in
      let targets = targets.(k) in
      Canopy_nn.Mlp.zero_grad critic;
      let preds, tape = Canopy_nn.Mlp.forward_train ~ws critic inputs in
      let dout =
        Mat.init ~rows:batch_size ~cols:1 (fun i _ ->
            2. *. (Mat.get preds i 0 -. targets.(i)) *. inv_n)
      in
      ignore (Canopy_nn.Mlp.backward critic tape dout);
      let params = Canopy_nn.Mlp.params critic in
      Canopy_nn.Optimizer.clip_gradients ~norm:10. params;
      Canopy_nn.Optimizer.step opt params
  in
  (* (name, batch size, units of work per closure call, closure). *)
  let tests =
    [
      ("actor_forward_b64", 64, 1, make_actor_forward ~batch_size:64);
      ("actor_forward_b256", 256, 1, make_actor_forward ~batch_size:256);
      ("critic_fit_b64", 64, 1, make_critic_fit ~batch_size:64);
      ("critic_fit_b256", 256, 1, make_critic_fit ~batch_size:256);
      ( "td3_update_batched_b64",
        64,
        policy_period,
        make_update ~batch_size:64 );
      ( "td3_update_batched_b256",
        256,
        policy_period,
        make_update ~batch_size:256 );
    ]
  in
  let rows =
    time_kernels ~group:"kernels" ~per:"op"
      ~limit:(if !smoke_mode then 25 else 4000)
      ~quota:(if !smoke_mode then 0.05 else 2.0)
      (List.map (fun (name, _, per_op, f) -> (name, per_op, f)) tests)
  in
  write_record "train_step"
    [
      ("hidden", int hidden);
      ("state_dim", int state_dim);
      ("action_dim", int action_dim);
      ( "entries",
        Json.Arr
          (List.filter_map
             (fun (name, batch, _, _) ->
               Option.map
                 (fun ns ->
                   Json.Obj
                     [
                       ("name", Json.Str name);
                       ("batch", int batch);
                       ("ns_per_op", fixed 1 ns);
                     ])
                 (List.assoc_opt name rows))
             tests) );
    ]

(* ------------------------------------------------------------------ *)
(* certify: batched IR engine vs per-slice reference, the evaluate-shaped
   MLP certificate, and the distilled tree's exact vs conservative
   certificates (BENCH_certify) *)

let certify_bench () =
  header
    "certify: batched verifier IR vs per-slice reference; exact vs \
     conservative tree";
  let state_dim = history * Canopy_orca.Observation.feature_count in
  let property = Property.performance () in
  let state = Array.make state_dim 0.4 in
  (* Certificate construction at the paper's verification width
     (hidden 256, as in Table 3) and at the training width the
     per-step certificate actually runs at inside the C3 loop
     (hidden 64, matching Td3.default_config). Each (shape, workload)
     point is measured under both engines; the fused-IR cache is warm
     after the first call of each kernel, which is exactly the regime
     certify runs in between gradient updates. *)
  let make_cert ~hidden ~engine ~domain ~n_components =
    let rng = Canopy_util.Prng.create 9 in
    let actor =
      Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden ~out_dim:1
    in
    fun () ->
      ignore
        (Certify.certify ~engine ~domain ~actor ~property ~n_components
           ~history ~state ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  let make_adaptive ~hidden ~engine =
    let rng = Canopy_util.Prng.create 9 in
    let actor =
      Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden ~out_dim:1
    in
    fun () ->
      ignore
        (Certify.certify_adaptive ~engine ~domain:Certify.Box_domain ~actor
           ~property ~initial_components:2 ~max_components:50 ~history ~state
           ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  let engines =
    [ ("batched", Certify.Batched); ("per_slice", Certify.Per_slice) ]
  in
  (* Certificates as evaluation builds them: 50 components per case on a
     harvested state, for the hidden-64 actor and for the tree [bench
     distill] fits from it. Full mode uses the trained actor; smoke
     distills an untrained one instead, so it needs no training run. *)
  let eval_actor =
    if !smoke_mode then
      Canopy_nn.Mlp.actor ~rng:(Canopy_util.Prng.create 9) ~in_dim:state_dim
        ~hidden:64 ~out_dim:1
    else (canopy_perf ()).actor
  in
  let xs, _, tree, _, _ = distill_actor eval_actor in
  let tree_state = Canopy_tensor.Mat.(row xs (rows xs / 2)) in
  let make_eval_cert () =
    ignore
      (Certify.certify ~actor:eval_actor ~property ~n_components:50 ~history
         ~state:tree_state ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  let make_tree_cert ~conservative () =
    ignore
      (Certify.certify_tree ~conservative ~tree ~property ~n_components:50
         ~history ~state:tree_state ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  let tests =
    List.concat_map
      (fun (ename, engine) ->
        [
          ( Printf.sprintf "cert_box_N5_%s" ename,
            make_cert ~hidden:256 ~engine ~domain:Certify.Box_domain
              ~n_components:5 );
          ( Printf.sprintf "cert_box_N20_%s" ename,
            make_cert ~hidden:256 ~engine ~domain:Certify.Box_domain
              ~n_components:20 );
          ( Printf.sprintf "cert_zono_N5_%s" ename,
            make_cert ~hidden:256 ~engine ~domain:Certify.Zonotope_domain
              ~n_components:5 );
          ( Printf.sprintf "cert_adaptive_%s" ename,
            make_adaptive ~hidden:256 ~engine );
          ( Printf.sprintf "train_cert_N5_%s" ename,
            make_cert ~hidden:64 ~engine ~domain:Certify.Box_domain
              ~n_components:5 );
          ( Printf.sprintf "train_cert_N20_%s" ename,
            make_cert ~hidden:64 ~engine ~domain:Certify.Box_domain
              ~n_components:20 );
        ])
      engines
    @ [
        ("eval_cert_N50_batched", make_eval_cert);
        ("cert_tree_N50_exact", make_tree_cert ~conservative:false);
        ("cert_tree_N50_conservative", make_tree_cert ~conservative:true);
      ]
  in
  let rows =
    time_kernels ~group:"certify" ~per:"cert"
      ~limit:(if !smoke_mode then 10 else 2000)
      ~quota:(if !smoke_mode then 0.05 else 1.0)
      (List.map (fun (name, f) -> (name, 1, f)) tests)
  in
  let speedup base =
    match
      ( List.assoc_opt (base ^ "_per_slice") rows,
        List.assoc_opt (base ^ "_batched") rows )
    with
    | Some ref_ns, Some bat_ns when bat_ns > 0. -> Some (ref_ns /. bat_ns)
    | _ -> None
  in
  let bases =
    [
      "cert_box_N5"; "cert_box_N20"; "cert_zono_N5"; "cert_adaptive";
      "train_cert_N5"; "train_cert_N20";
    ]
  in
  let speedups = List.map (fun b -> (b, speedup b)) bases in
  List.iter
    (fun (b, s) ->
      match s with
      | Some s ->
          Format.printf "certify speedup, batched vs per-slice, %s: %.2fx%s@."
            b s
            (if b = "cert_box_N5" && not !smoke_mode then
               if s >= 3. then "  (>= 3x: OK)" else "  (below 3x target!)"
             else "")
      | None -> ())
    speedups;
  write_record "certify"
    ([
       ("hidden", int 256);
       ("train_hidden", int 64);
       ("state_dim", int state_dim);
       ("tree_leaves", int (Canopy_distill.Tree.n_leaves tree));
       ("tree_depth", int (Canopy_distill.Tree.depth tree));
       ( "entries",
         Json.Arr
           (List.map
              (fun (name, ns) ->
                Json.Obj
                  [ ("name", Json.Str name); ("ns_per_cert", fixed 1 ns) ])
              rows) );
     ]
    @ List.filter_map
        (fun (b, s) -> Option.map (fun s -> ("speedup_" ^ b, fixed 3 s)) s)
        speedups)

(* ------------------------------------------------------------------ *)
(* par: deterministic domain pool, sequential vs parallel (BENCH_par) *)

(* Bit-exactness probes: every parallel path must reproduce its
   1-domain result exactly on a 2-domain pool. The grain is forced down
   so even these small probe workloads actually chunk. [--smoke] runs
   exactly these. *)
let par_probes ~state_dim probe =
  with_tiny_grain (fun () ->
      let rng = Canopy_util.Prng.create 33 in
      let mat rows cols =
        Mat.init ~rows ~cols (fun _ _ -> Canopy_util.Prng.uniform rng (-1.) 1.)
      in
      (* 37 rows trips the packed-panel nt path (>= 3 rows), so this
         probe pins the B-panel packing + 4x4 micro-kernel, not just the
         direct loops. *)
      let a = mat 37 29 and b = mat 41 29 in
      let bias = Array.init 41 (fun i -> Float.sin (float_of_int i)) in
      let run () =
        let dst = Mat.create ~rows:37 ~cols:41 in
        Mat.mat_mul_nt_bias_into ~dst a b bias;
        Array.map Int64.bits_of_float (Mat.raw dst)
      in
      probe "gemm_packed" (under 1 run = under 2 run);
      (* 300 shared dims span multiple 128-column k-blocks of the cache-
         blocked [mat_mul_into], so the store/reload accumulation across
         block boundaries is exercised too. *)
      let ab = mat 24 300 and bb = mat 300 17 in
      let run_blocked () =
        let dst = Mat.create ~rows:24 ~cols:17 in
        Mat.mat_mul_into ~dst ab bb;
        Array.map Int64.bits_of_float (Mat.raw dst)
      in
      probe "gemm_blocked" (under 1 run_blocked = under 2 run_blocked);
      (* Full TD3 gradient steps (sharded critic fits + actor conduit,
         policy delay 2 so the second update moves the actor and the
         targets): every learned parameter of all six networks must come
         out bit-identical whatever the pool width. *)
      let module Td3 = Canopy_rl.Td3 in
      let arng = Canopy_util.Prng.create 51 in
      let tcfg =
        {
          (Td3.default_config ~state_dim:4 ~action_dim:2) with
          Td3.hidden = 32;
          batch_size = 64;
          warmup = 64;
          buffer_capacity = 256;
        }
      in
      let agent = Td3.create ~rng:arng tcfg in
      let data = Canopy_util.Prng.create 52 in
      let rv n =
        Array.init n (fun _ -> Canopy_util.Prng.uniform data (-1.) 1.)
      in
      for _ = 1 to 256 do
        Td3.observe agent
          {
            Canopy_rl.Replay_buffer.state = rv 4;
            action = rv 2;
            reward = Canopy_util.Prng.uniform data (-1.) 1.;
            next_state = rv 4;
            terminal = false;
            truncated = false;
          }
      done;
      let snap0 = Td3.snapshot agent in
      let run_td3 d =
        Td3.restore agent snap0;
        under d (fun () ->
            Td3.update agent;
            Td3.update agent);
        let snap = Td3.snapshot agent in
        List.concat_map
          (fun (_, net) ->
            List.map
              (fun (v, _) -> Array.map Int64.bits_of_float v)
              (Canopy_nn.Mlp.params net))
          snap.Td3.nets
      in
      probe "td3_update" (run_td3 1 = run_td3 2);
      let prng = Canopy_util.Prng.create 9 in
      let actor =
        Canopy_nn.Mlp.actor ~rng:prng ~in_dim:state_dim ~hidden:32 ~out_dim:1
      in
      let state = Array.make state_dim 0.4 in
      let property = Property.performance () in
      let cert () =
        Certify.certify ~engine:Certify.Batched ~domain:Certify.Box_domain
          ~actor ~property ~n_components:50 ~history ~state ~cwnd_tcp:100.
          ~prev_cwnd:90. ()
      in
      probe "certify" (under 1 cert = under 2 cert);
      let links =
        List.map (Eval.link ~min_rtt_ms)
          (List.filteri (fun i _ -> i < 2) (Suite.all ~duration_ms:2_000 ()))
      in
      let tasks =
        List.map
          (fun l () -> Eval.eval_tcp ~name:"cubic" Eval.cubic_scheme l)
          links
      in
      let sweep () = Eval.run_tasks tasks in
      probe "eval_sweep" (under 1 sweep = under 2 sweep))

let par_bench () =
  header "par: domain-pool parallel gemm / certify / eval vs sequential";
  let state_dim = history * Canopy_orca.Observation.feature_count in
  with_pools (fun () ->
      if num_cores = 1 then
        Format.printf
          "single-core machine: parallel rows measure oversubscription and \
           their speedups are marked skipped.@.";
      ignore
        (run_probes ~bench:"par"
           ~expect:
             [ "gemm_packed"; "gemm_blocked"; "td3_update"; "certify";
               "eval_sweep" ]
           (par_probes ~state_dim)
          : string list);
      (* -- timings: each workload at every domain count; d=1 is the
         sequential reference row. *)
      let gemm_work =
        let rng = Canopy_util.Prng.create 21 in
        let dim = 256 in
        let mat rows cols =
          Mat.init ~rows ~cols (fun _ _ -> Canopy_util.Prng.uniform rng (-1.) 1.)
        in
        let a = mat dim dim and b = mat dim dim in
        let bias = Array.init dim (fun i -> Float.cos (float_of_int i)) in
        let dst = Mat.create ~rows:dim ~cols:dim in
        fun () -> Mat.mat_mul_nt_bias_into ~dst a b bias
      in
      let certify_work =
        let rng = Canopy_util.Prng.create 9 in
        let actor =
          Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden:256 ~out_dim:1
        in
        let state = Array.make state_dim 0.4 in
        let property = Property.performance () in
        fun () ->
          ignore
            (Certify.certify ~engine:Certify.Batched ~domain:Certify.Box_domain
               ~actor ~property ~n_components:50 ~history ~state ~cwnd_tcp:100.
               ~prev_cwnd:90. ())
      in
      let eval_work =
        let duration_ms = if !smoke_mode then 2_000 else scale.trace_ms in
        let links =
          List.map (Eval.link ~min_rtt_ms)
            (List.filteri (fun i _ -> i < 6) (Suite.all ~duration_ms ()))
        in
        let tasks =
          List.map
            (fun l () -> Eval.eval_tcp ~name:"cubic" Eval.cubic_scheme l)
            links
        in
        fun () -> ignore (Eval.run_tasks tasks)
      in
      let workloads =
        [
          ("gemm", gemm_work);
          ("certify", certify_work);
          ("eval_sweep", eval_work);
        ]
      in
      let tests =
        List.concat_map
          (fun (wname, work) ->
            List.map
              (fun d ->
                ( Printf.sprintf "%s_d%d" wname d,
                  wname,
                  d,
                  (* Selecting the pool inside the closure keeps each
                     bechamel sample self-contained; the set_default cost
                     is a mutex flip, noise against ms-scale workloads. *)
                  fun () -> under d work ))
              domain_counts)
          workloads
      in
      let rows =
        time_kernels ~group:"par" ~per:"op"
          ~limit:(if !smoke_mode then 6 else 2000)
          ~quota:(if !smoke_mode then 0.05 else 1.5)
          (List.map (fun (name, _, _, f) -> (name, 1, f)) tests)
      in
      let ns w d = List.assoc_opt (Printf.sprintf "%s_d%d" w d) rows in
      let speedups =
        List.concat_map
          (fun (w, _) ->
            List.filter_map
              (fun d ->
                match (ns w 1, ns w d) with
                | Some seq_ns, Some par_ns when par_ns > 0. ->
                    Some (w, d, seq_ns /. par_ns)
                | _ -> None)
              (List.filter (fun d -> d > 1) domain_counts))
          workloads
      in
      List.iter
        (fun (w, d, s) ->
          Format.printf "par speedup, %d domains vs sequential, %s: %.2fx%s@." d
            w s
            (if d > num_cores then "  [skipped: oversubscribed]" else ""))
        speedups;
      write_record "par"
        [
          ("num_cores", int num_cores);
          ("domain_counts", Json.Arr (List.map int domain_counts));
          ( "entries",
            Json.Arr
              (List.filter_map
                 (fun (name, wname, d, _) ->
                   Option.map
                     (fun ns ->
                       Json.Obj
                         [
                           ("name", Json.Str name);
                           ("workload", Json.Str wname);
                           ("domains", int d);
                           ("ns_per_op", fixed 1 ns);
                         ])
                     (List.assoc_opt name rows))
                 tests) );
          ( "speedups",
            Json.Arr
              (List.map
                 (fun (w, d, s) ->
                   Json.Obj
                     ([
                        ("workload", Json.Str w);
                        ("domains", int d);
                        ("ratio", fixed 3 s);
                      ]
                     @ oversubscribed d))
                 speedups) );
        ])

(* ------------------------------------------------------------------ *)
(* Fleet: vectorized simulator throughput + batched policy serving *)

let fleet_bench () =
  header "fleet: vectorized links, one policy GEMM per decision tick";
  let module Mlp = Canopy_nn.Mlp in
  let module Agent_env = Canopy_orca.Agent_env in
  let module Fleet_env = Canopy_orca.Fleet_env in
  let module Fleet_eval = Canopy.Fleet_eval in
  let state_dim = history * Canopy_orca.Observation.feature_count in
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 3)
      ~in_dim:state_dim ~hidden:64 ~out_dim:1
  in
  let clamp = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1. in
  (* One episode config per flow: capacities staggered across the fleet
     so flows genuinely diverge, optional impairments to exercise the
     per-flow PRNG and the jittered-return resort path. *)
  let mk_cfg ?(interval = 40) ?(buffer = 160)
      ?(impair = Canopy_netsim.Env.no_impairments) ~duration_ms i =
    let mbps = 12. +. (6. *. float_of_int (i mod 7)) in
    let trace =
      Trace.constant
        ~name:(Printf.sprintf "fleet-c%02d" (i mod 7))
        ~duration_ms ~mbps
    in
    {
      (Agent_env.default_config ~trace ~min_rtt_ms ~buffer_pkts:buffer
         ~duration_ms)
      with
      Agent_env.interval_ms = Some interval;
      impairments = impair;
    }
  in
  (* A full-episode trajectory fingerprint: per decision tick the bits
     of every flow's state row, action, reward and enforced window.
     Anything the sim or the serving path computes differently shows up
     here. *)
  let fleet_trajectory cfgs =
    let env = Fleet_env.create cfgs in
    let n = Fleet_env.flows env in
    let x = Mat.create ~rows:n ~cols:(Fleet_env.state_dim env) in
    let y = Mat.create_uninit ~rows:n ~cols:1 in
    let actions = Array.make n 0. in
    let bits = ref [] in
    let push a = bits := Array.map Int64.bits_of_float a :: !bits in
    let fin = ref false in
    while not !fin do
      Fleet_env.write_states env ~dst:x;
      push (Array.copy (Mat.raw x));
      Mlp.forward_eval_into ~dst:y actor x;
      for i = 0 to n - 1 do
        actions.(i) <- clamp (Mat.raw y).(i)
      done;
      let r = Fleet_env.step env ~actions in
      push actions;
      push r.Fleet_env.rewards;
      push r.Fleet_env.cwnd_enforced;
      fin := r.Fleet_env.finished
    done;
    List.rev !bits
  in
  let scalar_trajectory cfgs =
    let envs = Array.map Agent_env.create cfgs in
    let n = Array.length envs in
    let bits = ref [] in
    let push a = bits := Array.map Int64.bits_of_float a :: !bits in
    let fin = ref false in
    while not !fin do
      let states =
        Array.concat (Array.to_list (Array.map Agent_env.state envs))
      in
      push states;
      let steps =
        Array.mapi
          (fun i env ->
            let action = clamp (Mlp.forward actor (Agent_env.state envs.(i))).(0) in
            (action, Agent_env.step env ~action))
          envs
      in
      push (Array.map fst steps);
      push (Array.map (fun (_, r) -> r.Agent_env.raw_reward) steps);
      push (Array.map (fun (_, r) -> r.Agent_env.cwnd_enforced) steps);
      fin := (snd steps.(n - 1)).Agent_env.finished
    done;
    List.rev !bits
  in
  with_pools (fun () ->
      let probes =
        run_probes ~bench:"fleet" ~expect:[ "fleet_vs_scalar"; "fleet_domains" ]
          (fun probe ->
            (* 6 flows, one with wireless-style impairments (loss + jitter +
               reordering) so the per-flow PRNG stream, the jittered-return-path
               resort and the reorder hold-back are all in the comparison: the
               6-flow fleet must equal 6 one-flow fleets, i.e. flows are
               independent. *)
            let probe_cfgs =
              Array.init 6 (fun i ->
                  let impair =
                    if i = 4 then
                      {
                        Canopy_netsim.Env.random_loss = 0.01;
                        ack_jitter_ms = 2;
                        reorder_prob = 0.05;
                        reorder_ms = 6;
                        seed = 7;
                      }
                    else Canopy_netsim.Env.no_impairments
                  in
                  mk_cfg ~impair ~duration_ms:800 i)
            in
            probe "fleet_vs_scalar"
              (under 1 (fun () -> fleet_trajectory probe_cfgs)
              = scalar_trajectory probe_cfgs);
            (* 64 flows at a 300 ms cadence put each advancement call at
               64 × 300 = 19 200 flow·ms, above the fleet's parallel threshold
               (16 384), so the multi-domain runs genuinely chunk. *)
            let domain_cfgs =
              Array.init 64 (fun i ->
                  let impair =
                    if i mod 9 = 0 then
                      {
                        Canopy_netsim.Env.random_loss = 0.005;
                        ack_jitter_ms = 1;
                        reorder_prob = 0.02;
                        reorder_ms = 4;
                        seed = 100 + i;
                      }
                    else Canopy_netsim.Env.no_impairments
                  in
                  mk_cfg ~interval:300 ~impair ~duration_ms:1_200 i)
            in
            let ref_traj = under 1 (fun () -> fleet_trajectory domain_cfgs) in
            probe "fleet_domains"
              (List.for_all
                 (fun d ->
                   under d (fun () -> fleet_trajectory domain_cfgs) = ref_traj)
                 (List.filter (fun d -> d <> 1) domain_counts)))
      in
      (* -- throughput -------------------------------------------------- *)
      (* Long fleet episodes are timed wall-clock (as [ablation] does)
         rather than via bechamel: one run is seconds at the large sizes
         and the quantity of interest is aggregate flow·ms/s, not ns/op. *)
      let sizes =
        if !smoke_mode then [ (32, 400) ]
        else [ (1_000, 1_600); (10_000, 800); (100_000, 400) ]
      in
      let time_fleet ~flows:n ~duration_ms d =
        under d (fun () ->
            let cfgs =
              Array.init n
                (mk_cfg ~buffer:(if n >= 100_000 then 64 else 160) ~duration_ms)
            in
            let env = Fleet_env.create cfgs in
            let t0 = Unix.gettimeofday () in
            let r = Fleet_eval.serve ~policy:(`Mlp actor) env in
            let wall = Unix.gettimeofday () -. t0 in
            (r, wall))
      in
      let entries =
        List.concat_map
          (fun (n, duration_ms) ->
            List.map
              (fun d ->
                let r, wall = time_fleet ~flows:n ~duration_ms d in
                let flow_ms = float_of_int (n * duration_ms) in
                let decisions =
                  float_of_int (n * r.Fleet_eval.decision_ticks)
                in
                Format.printf
                  "fleet %6d flows, %4d ms, %d domain%s: %.2fs wall, %.2e \
                   flow·ms/s, %.2e decisions/s (jain %.3f, util %.1f%%)@."
                  n duration_ms d
                  (if d = 1 then " " else "s")
                  wall (flow_ms /. wall) (decisions /. wall)
                  r.Fleet_eval.jain
                  (100. *. r.Fleet_eval.mean_utilization);
                (n, duration_ms, d, r.Fleet_eval.decision_ticks, wall,
                 flow_ms /. wall, decisions /. wall))
              domain_counts)
          sizes
      in
      (* Scalar baseline at the smallest size: the same episodes as N
         one-flow fleets, stepped one [Agent_env] view at a time with
         per-flow [Mlp.forward] inference — what the fleet's batching
         replaces. *)
      let base_n, base_dur = List.hd sizes in
      let scalar_wall =
        let cfgs = Array.init base_n (mk_cfg ~duration_ms:base_dur) in
        let t0 = Unix.gettimeofday () in
        ignore (scalar_trajectory cfgs : Int64.t array list);
        Unix.gettimeofday () -. t0
      in
      (* the first entry is the smallest size at 1 domain *)
      let _, _, _, _, fleet_wall_1d, _, _ = List.hd entries in
      let speedup = scalar_wall /. fleet_wall_1d in
      Format.printf
        "scalar baseline, %d flows: %.2fs wall — fleet(1 domain) speedup \
         %.2fx@."
        base_n scalar_wall speedup;
      write_record "fleet"
        [
          ("num_cores", int num_cores);
          ("domain_counts", Json.Arr (List.map int domain_counts));
          ("probes", Json.Arr (List.map (fun p -> Json.Str p) probes));
          ( "entries",
            Json.Arr
              (List.map
                 (fun (n, dur, d, ticks, wall, fps, dps) ->
                   Json.Obj
                     ([
                        ("flows", int n);
                        ("duration_ms", int dur);
                        ("domains", int d);
                        ("decision_ticks", int ticks);
                        ("wall_s", fixed 3 wall);
                        ("flow_ms_per_sec", fixed 1 fps);
                        ("decisions_per_sec", fixed 1 dps);
                      ]
                     @ oversubscribed d))
                 entries) );
          ( "scalar_baseline",
            Json.Obj
              [
                ("flows", int base_n);
                ("duration_ms", int base_dur);
                ("wall_s", fixed 3 scalar_wall);
                ("fleet_wall_s", fixed 3 fleet_wall_1d);
                ("speedup", fixed 3 speedup);
              ] );
        ])

(* ------------------------------------------------------------------ *)
(* distill: piecewise-affine tree serving vs the MLP actor
   (BENCH_distill) *)

let distill_bench () =
  header "distill: piecewise-affine tree serving vs MLP actor";
  let module Tree = Canopy_distill.Tree in
  let module Fit = Canopy_distill.Fit in
  let model = canopy_perf () in
  let actor = model.actor in
  (* -- distillation cost: both walls are part of the record. *)
  let xs, ys, tree, harvest_wall, fit_wall = distill_actor actor in
  let fidelity = Fit.mse tree ~xs ~ys in
  Format.printf
    "distilled %d states -> %d leaves (depth %d) in %.2fs harvest + %.2fs \
     fit; fidelity MSE %.3e@."
    (Array.length ys) (Tree.n_leaves tree) (Tree.depth tree) harvest_wall
    fit_wall fidelity;
  let d = Tree.in_dim tree in
  (* -- bit-exactness probe for the pool-parallel tree serving: the
     batched path must reproduce its 1-domain result exactly at every
     other domain count (tiny grain so the probe workload actually
     chunks). [--smoke] runs exactly this. *)
  let probes =
    with_pools (fun () ->
        with_tiny_grain (fun () ->
            run_probes ~bench:"distill" ~expect:[ "tree_serve" ] (fun probe ->
                let probe_xs =
                  Mat.init ~rows:2_048 ~cols:d (fun i j ->
                      Float.sin (float_of_int ((i * d) + j)))
                in
                let serve dn =
                  under dn (fun () ->
                      let dst = Mat.create ~rows:2_048 ~cols:1 in
                      Tree.predict_rows_into ~dst tree probe_xs;
                      Array.map Int64.bits_of_float (Mat.raw dst))
                in
                let reference = serve 1 in
                probe "tree_serve"
                  (List.for_all
                     (fun dn -> serve dn = reference)
                     (List.filter (fun dn -> dn <> 1) domain_counts)))))
  in
  (* -- ns/decision: both policies through the one serving entry point
     ([Policy.predict_rows_into], exactly the scalar-eval and fleet
     paths) at small and large batches. *)
  let batches = if !smoke_mode then [ 1; 1_000 ] else [ 1; 1_000; 100_000 ] in
  let make_serve policy ~batch =
    let xsb =
      Mat.init ~rows:batch ~cols:d (fun i j ->
          Float.sin (float_of_int ((i * d) + j)))
    in
    let dst = Mat.create ~rows:batch ~cols:1 in
    fun () -> Canopy.Policy.predict_rows_into ~dst policy xsb
  in
  let tests =
    List.concat_map
      (fun b ->
        [
          (Printf.sprintf "mlp_b%d" b, "mlp", b, make_serve (`Mlp actor) ~batch:b);
          ( Printf.sprintf "tree_b%d" b,
            "tree",
            b,
            make_serve (`Tree tree) ~batch:b );
        ])
      batches
  in
  let rows =
    time_kernels ~group:"distill" ~per:"decision"
      ~limit:(if !smoke_mode then 25 else 4000)
      ~quota:(if !smoke_mode then 0.05 else 2.0)
      (List.map (fun (name, _, batch, f) -> (name, batch, f)) tests)
  in
  let speedup b =
    let ns kind = List.assoc_opt (Printf.sprintf "%s_b%d" kind b) rows in
    match (ns "mlp", ns "tree") with
    | Some mlp_ns, Some tree_ns when tree_ns > 0. -> Some (mlp_ns /. tree_ns)
    | _ -> None
  in
  let speedups = List.filter_map (fun b -> Option.map (fun s -> (b, s)) (speedup b)) batches in
  List.iter
    (fun (b, s) ->
      let target = if b = 1 then Some 10. else if b = 100_000 then Some 2. else None in
      Format.printf "tree vs mlp speedup, batch %d: %.2fx%s@." b s
        (match target with
        | Some t when not !smoke_mode ->
            if s >= t then Printf.sprintf "  (>= %.0fx: OK)" t
            else Printf.sprintf "  (below %.0fx target!)" t
        | _ -> ""))
    speedups;
  (* -- utility delta: both policies over the evaluation suite, mean
     utilization per category (the fidelity-in-deployment check; smoke
     uses a 2-trace subset). *)
  let suite_traces =
    let all = traces () in
    if !smoke_mode then List.filteri (fun i _ -> i < 2) all else all
  in
  let eval_of policy trace =
    let link = Eval.link ~min_rtt_ms ~bdp:2. trace in
    fst (Eval.eval_policy ~policy ~history link)
  in
  let utility =
    List.filter_map
      (fun (cat_name, cat) ->
        let ts =
          List.filter (fun t -> Suite.category_of t = cat) suite_traces
        in
        if ts = [] then None
        else begin
          let mean policy =
            (Eval.mean_results cat_name (List.map (eval_of policy) ts))
              .Eval.utilization
          in
          let mlp_u = mean (`Mlp actor) and tree_u = mean (`Tree tree) in
          let delta_pct =
            if Float.abs mlp_u < 1e-9 then 0.
            else 100. *. (tree_u -. mlp_u) /. mlp_u
          in
          Format.printf
            "utility %-10s mlp=%5.1f%% tree=%5.1f%% delta=%+.2f%%%s@." cat_name
            (100. *. mlp_u) (100. *. tree_u) delta_pct
            (if not !smoke_mode && Float.abs delta_pct > 5. then
               "  (outside 5% target!)"
             else "");
          Some (cat_name, mlp_u, tree_u, delta_pct)
        end)
      [ ("synthetic", Suite.Synthetic); ("real", Suite.Real) ]
  in
  write_record "distill"
    [
      ("num_cores", int num_cores);
      ( "tree",
        Json.Obj
          [
            ("samples", int (Array.length ys));
            ("leaves", int (Tree.n_leaves tree));
            ("depth", int (Tree.depth tree));
            ("harvest_wall_s", fixed 3 harvest_wall);
            ("fit_wall_s", fixed 3 fit_wall);
            ("fidelity_mse", Json.Num fidelity);
          ] );
      ("probes_run", int (List.length probes));
      ( "entries",
        Json.Arr
          (List.filter_map
             (fun (name, kind, batch, _) ->
               Option.map
                 (fun ns ->
                   Json.Obj
                     [
                       ("name", Json.Str name);
                       ("policy", Json.Str kind);
                       ("batch", int batch);
                       ("ns_per_decision", fixed 1 ns);
                     ])
                 (List.assoc_opt name rows))
             tests) );
      ( "speedups",
        Json.Arr
          (List.map
             (fun (b, s) ->
               Json.Obj [ ("batch", int b); ("tree_vs_mlp", fixed 3 s) ])
             speedups) );
      ( "utility",
        Json.Arr
          (List.map
             (fun (cat, mlp_u, tree_u, delta_pct) ->
               Json.Obj
                 [
                   ("category", Json.Str cat);
                   ("mlp_utilization", fixed 4 mlp_u);
                   ("tree_utilization", fixed 4 tree_u);
                   ("delta_pct", fixed 3 delta_pct);
                 ])
             utility) );
    ]
