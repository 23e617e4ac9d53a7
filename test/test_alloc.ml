(* Allocation budgets of the hot paths. Wall time cannot be pinned in a
   test, but allocation can: for a given binary and code path the words
   a warm call allocates are deterministic. Each case warms its path up,
   counts the words allocated over many calls at one domain, and checks
   the words per call against a committed budget. A budget may be
   lowered when a change allocates less; raising one needs a reason in
   CHANGES.

   Minor words come from [Gc.minor_words], which counts every word the
   calls allocate on the minor heap exactly (the minor figure of
   [Gc.counters] drifted by about 2% between windows of identical TD3
   updates). Major words are the ones allocated directly on the major
   heap (arrays past the minor heap's size limit): [Gc.counters]' major
   count minus the promoted words, which depend on when minor
   collections fall. Each budget is the larger of the counts on the two
   kernel paths (the AVX2 C kernels, and the OCaml loops that hosts
   without AVX2 run, measured with [Elementwise.avx2] forced off) plus
   about 1%. *)

open Canopy_util
module Mlp = Canopy_nn.Mlp
module Td3 = Canopy_rl.Td3
module Fleet = Canopy_netsim.Fleet
module Fleet_env = Canopy_orca.Fleet_env
module Env = Canopy_netsim.Env
module Trace = Canopy_trace.Trace
module Policy = Canopy.Policy
module Mat = Canopy_tensor.Mat

(* Runs [f] with a one-domain default pool, so no GEMM or link sweep
   fans out and every word is allocated by the calling domain. *)
let at_one_domain f =
  let pool = Pool.create ~domains:1 () in
  let saved = Pool.default () in
  Pool.set_default pool;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default saved;
      Pool.shutdown pool)
    f

(* Minor and direct-major words allocated per call of [f], over [n]
   calls. *)
let words_per_call ~n f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let per x = x /. float_of_int n in
  (per (minor1 -. minor0), per (major1 -. major0 -. (promoted1 -. promoted0)))

(* The count goes to the case's output log
   (_build/_tests/canopy/alloc.*.output) as well, for re-baselining. *)
let within what ~budget words =
  Printf.printf "%s: %.4f words per call (budget %g)\n" what words budget;
  if words > budget then
    Alcotest.failf "%s: %.2f words per call, budget %.2f" what words budget

(* ------------------------------------------------------------------ *)

let test_scratch_front_hit () =
  at_one_domain @@ fun () ->
  let scratch = Scratch.create () in
  ignore (Scratch.get scratch ~slot:0 ~len:64);
  let minor, major =
    words_per_call ~n:10_000 (fun () ->
        ignore (Scratch.get scratch ~slot:0 ~len:64))
  in
  within "Scratch.get front hit, minor" ~budget:0. minor;
  within "Scratch.get front hit, major" ~budget:0. major

(* The trained actor's shape: 35 features, two hidden layers of 64. *)
let test_mlp_forward () =
  at_one_domain @@ fun () ->
  let actor = Mlp.actor ~rng:(Prng.create 5) ~in_dim:35 ~hidden:64 ~out_dim:1 in
  let x = Array.init 35 (fun i -> Float.sin (float_of_int i)) in
  ignore (Mlp.forward actor x);
  let minor, major =
    words_per_call ~n:2_000 (fun () -> ignore (Mlp.forward actor x))
  in
  within "Mlp.forward, minor" ~budget:95. minor;
  within "Mlp.forward, major" ~budget:0. major

(* The serving tick's batched inference: the same actor over a
   264-row state matrix, serve_clean's fleet size. *)
let test_predict_rows () =
  at_one_domain @@ fun () ->
  let actor = Mlp.actor ~rng:(Prng.create 5) ~in_dim:35 ~hidden:64 ~out_dim:1 in
  let rows = 264 in
  let x =
    Mat.init ~rows ~cols:35 (fun i j -> Float.sin (float_of_int ((i * 35) + j)))
  in
  let dst = Mat.create ~rows ~cols:1 in
  let policy = `Mlp actor in
  Policy.predict_rows_into ~dst policy x;
  let minor, major =
    words_per_call ~n:200 (fun () -> Policy.predict_rows_into ~dst policy x)
  in
  within "Policy.predict_rows_into, minor" ~budget:85. minor;
  within "Policy.predict_rows_into, major" ~budget:0. major

(* Re-extracting the verifier IR of the trainer's actor for a new
   generation, as certificate-in-the-loop training does after every actor
   update: the cache extracts into the arrays of the IR two generations
   back, so no stage matrix is allocated (a fresh extraction allocated
   19 014 direct major words). *)
let test_anet_refresh () =
  at_one_domain @@ fun () ->
  let actor = Mlp.actor ~rng:(Prng.create 5) ~in_dim:35 ~hidden:64 ~out_dim:1 in
  let refresh () =
    Mlp.bump_generation actor;
    ignore (Canopy_absint.Anet.cached actor)
  in
  (* The first two generations fill the cache's two IRs. *)
  refresh ();
  refresh ();
  let minor, major = words_per_call ~n:200 refresh in
  within "Anet.cached refresh, minor" ~budget:1_291. minor;
  within "Anet.cached refresh, major" ~budget:0. major

(* One-flow links on one constant 24 Mbps trace with Cubic handlers: the
   minor and direct-major words per link·ms of a steady 4 000-ms
   [Fleet.run], after 2 s of warm-up. The per-family packets-per-ms
   table is a buffer of the fleet: the first call longer than any before
   grows it (one [ms]-float array, straight to the major heap: 4 001
   words for the first 4 000-ms call), and every later call refills it
   in place, unboxed. So the warm-up ends with one call of the measured
   length, and what the steady call allocates is not the table. Before
   the buffer, every call rebuilt it: 16 024 minor words (two boxed
   floats per entry) and the 4 001-word table per call, at any link
   count. *)
let fleet_run_words ~links =
  let ms = 4_000 in
  let trace = Trace.constant ~name:"c" ~duration_ms:10_000 ~mbps:24. in
  let cfg =
    {
      Env.trace;
      min_rtt_ms = 40;
      buffer_pkts = 160;
      mtu_bytes = 1500;
      initial_cwnd = 10.;
      impairments = Env.no_impairments;
    }
  in
  let fleet = Fleet.create (Array.make links cfg) in
  let handlers =
    Array.init links (fun _ ->
        Canopy_cc.Controller.handlers
          (Canopy_cc.Cubic.to_controller (Canopy_cc.Cubic.create ())))
  in
  Fleet.run fleet handlers ~ms:2_000;
  Fleet.run fleet handlers ~ms;
  let minor, major =
    words_per_call ~n:1 (fun () -> Fleet.run fleet handlers ~ms)
  in
  let per_link_ms x = x /. float_of_int (links * ms) in
  (per_link_ms minor, per_link_ms major)

let test_fleet_run () =
  at_one_domain @@ fun () ->
  let minor, major = fleet_run_words ~links:64 in
  within "Fleet.run per link·ms, minor" ~budget:3.55e-5 minor;
  within "Fleet.run per link·ms, major" ~budget:0. major

let test_fleet_run_one_link () =
  at_one_domain @@ fun () ->
  let minor, major = fleet_run_words ~links:1 in
  within "Fleet.run one link, per ms, minor" ~budget:0.00227 minor;
  within "Fleet.run one link, per ms, major" ~budget:0. major

(* The per-ACK handlers: one 4-ACK run (serving's runs average 4.36
   ACKs) through Cubic's [on_acks] in slow start and in congestion
   avoidance, and through the monitor's. Their state is flat floats and
   the window cap, the floors and the monitor's sum are inline
   arithmetic, so a run allocates nothing. *)
let ack_run_words ?(setup = ignore) on_acks =
  at_one_domain @@ fun () ->
  let now_ms = ref 1_000 in
  let run () =
    incr now_ms;
    on_acks ~now_ms:!now_ms ~rtt_ms:40 ~first_seq:0 ~count:4 ~delivered:4
  in
  setup ();
  run ();
  words_per_call ~n:10_000 run

let test_cubic_on_acks_slow_start () =
  let c = Canopy_cc.Cubic.create () in
  let minor, major = ack_run_words (Canopy_cc.Cubic.on_acks c) in
  Alcotest.(check bool) "still in slow start" true
    (Canopy_cc.Cubic.in_slow_start c);
  within "Cubic.on_acks 4-ACK run, slow start, minor" ~budget:0. minor;
  within "Cubic.on_acks 4-ACK run, slow start, major" ~budget:0. major

let test_cubic_on_acks_avoidance () =
  let c = Canopy_cc.Cubic.create ~initial_cwnd:100. () in
  let minor, major =
    ack_run_words
      ~setup:(fun () -> Canopy_cc.Cubic.on_loss c ~now_ms:1_000 ~count:1)
      (Canopy_cc.Cubic.on_acks c)
  in
  Alcotest.(check bool) "in congestion avoidance" false
    (Canopy_cc.Cubic.in_slow_start c);
  within "Cubic.on_acks 4-ACK run, avoidance, minor" ~budget:0. minor;
  within "Cubic.on_acks 4-ACK run, avoidance, major" ~budget:0. major

let test_monitor_on_acks () =
  let m = Canopy_orca.Monitor.create ~min_rtt_ms:40 () in
  let minor, major = ack_run_words (Canopy_orca.Monitor.on_acks m) in
  within "Monitor.on_acks 4-ACK run, minor" ~budget:0. minor;
  within "Monitor.on_acks 4-ACK run, major" ~budget:0. major

(* Agent flows on their own one-flow links (constant 24 Mbps, minRTT
   40 ms, 2-BDP buffers, 40 ms decisions): the words per flow of a
   steady [Fleet_env.step], after 20 warm-up steps. *)
let test_fleet_env_step () =
  at_one_domain @@ fun () ->
  let flows = 64 in
  let trace = Trace.constant ~name:"c" ~duration_ms:60_000 ~mbps:24. in
  let cfg =
    Canopy_orca.Agent_env.default_config ~trace ~min_rtt_ms:40
      ~buffer_pkts:160 ~duration_ms:60_000
  in
  let env = Fleet_env.create (Array.make flows cfg) in
  let actions = Array.make flows 0. in
  for _ = 1 to 20 do
    ignore (Fleet_env.step env ~actions)
  done;
  let steps = 50 in
  let minor, major =
    words_per_call ~n:steps (fun () -> ignore (Fleet_env.step env ~actions))
  in
  let per_flow x = x /. float_of_int flows in
  within "Fleet_env.step per flow, minor" ~budget:144.7 (per_flow minor);
  within "Fleet_env.step per flow, major" ~budget:0. (per_flow major)

(* One policy period (two updates: both critics twice, the actor and the
   targets once) at the trainer's shape. Every matrix an update writes
   lives in the agent's workspace or a scratch arena, so nothing goes to
   the major heap; before them a period allocated 176 239 direct major
   words (13 593 minor). *)
let test_td3_update () =
  at_one_domain @@ fun () ->
  let state_dim = 35 and action_dim = 1 in
  let agent =
    Td3.create ~rng:(Prng.create 11)
      {
        (Td3.default_config ~state_dim ~action_dim) with
        Td3.hidden = 64;
        batch_size = 64;
        warmup = 64;
        buffer_capacity = 4_096;
      }
  in
  let data = Prng.create 13 in
  let rv n = Array.init n (fun _ -> Prng.uniform data (-1.) 1.) in
  for _ = 1 to 1_024 do
    Td3.observe agent
      {
        Canopy_rl.Replay_buffer.state = rv state_dim;
        action = rv action_dim;
        reward = Prng.uniform data (-1.) 1.;
        next_state = rv state_dim;
        terminal = false;
        truncated = false;
      }
  done;
  let period () =
    Td3.update agent;
    Td3.update agent
  in
  for _ = 1 to 10 do
    period ()
  done;
  let minor, major = words_per_call ~n:100 period in
  within "Td3.update policy period, minor" ~budget:9_135. minor;
  within "Td3.update policy period, major" ~budget:0. major

(* One step certificate at the evaluation's N = 50 (performance
   property, history 5): the component set's centers and radii, the
   tree's action bounds and the engines' buffers (the MLP's center rows
   and stages, the tree's corners, cell and terms) live in per-domain
   scratch arenas, so what
   a certificate allocates is its result (100 component records and their
   intervals) and a few per-call words; nothing goes to the major heap
   (before, each certificate took 7.0 k direct major words for two fresh
   3 500-float row matrices). *)
let cert_state = lazy (
  let _, _, xs, _ = Lazy.force Test_distill.distilled_fixture in
  Mat.row xs (Mat.rows xs / 2))

let certificate_words certify =
  at_one_domain @@ fun () ->
  let state = Lazy.force cert_state in
  let run () =
    ignore
      (certify ~property:(Canopy.Property.performance ()) ~n_components:50
         ~history:5 ~state ~cwnd_tcp:100. ~prev_cwnd:90.)
  in
  for _ = 1 to 5 do
    run ()
  done;
  words_per_call ~n:200 run

let test_certify_mlp () =
  let actor = Mlp.actor ~rng:(Prng.create 5) ~in_dim:35 ~hidden:64 ~out_dim:1 in
  let minor, major =
    certificate_words
      (fun ~property ~n_components ~history ~state ~cwnd_tcp ~prev_cwnd ->
        Canopy.Certify.certify ~actor ~property ~n_components ~history ~state
          ~cwnd_tcp ~prev_cwnd ())
  in
  within "Certify.certify N=50, minor" ~budget:7_809. minor;
  within "Certify.certify N=50, major" ~budget:0. major

let test_certify_tree () =
  let _, tree, _, _ = Lazy.force Test_distill.distilled_fixture in
  let minor, major =
    certificate_words
      (fun ~property ~n_components ~history ~state ~cwnd_tcp ~prev_cwnd ->
        Canopy.Certify.certify_tree ~tree ~property ~n_components ~history
          ~state ~cwnd_tcp ~prev_cwnd ())
  in
  within "Certify.certify_tree N=50, minor" ~budget:7_666. minor;
  within "Certify.certify_tree N=50, major" ~budget:0. major

(* One Cubic evaluation cell on a 1-s suite link (30 ms, 2 BDP), as
   perfbench's evaluate scores it. The delay statistics come from the
   fleet's histogram, so the cell allocates no per-packet array (before,
   three float arrays as long as the delivered-packet count); its direct
   major words are the fresh fleet's packets-per-ms buffer. *)
let test_eval_tcp () =
  at_one_domain @@ fun () ->
  let trace = List.hd (Canopy_trace.Suite.all ~duration_ms:1_000 ()) in
  let link = Canopy.Eval.link ~min_rtt_ms:30 ~bdp:2. trace in
  let run () =
    ignore (Canopy.Eval.eval_tcp ~name:"cubic" Canopy.Eval.cubic_scheme link)
  in
  run ();
  let minor, major = words_per_call ~n:50 run in
  within "Eval.eval_tcp 1-s cell, minor" ~budget:3_563. minor;
  within "Eval.eval_tcp 1-s cell, major" ~budget:1_011. major

let suite =
  [
    ("Scratch.get front hit", `Quick, test_scratch_front_hit);
    ("Mlp.forward per call", `Quick, test_mlp_forward);
    ("Policy.predict_rows_into per call", `Quick, test_predict_rows);
    ("Anet.cached refresh per generation", `Quick, test_anet_refresh);
    ("Fleet.run per link·ms", `Quick, test_fleet_run);
    ("Fleet.run one link, per ms", `Quick, test_fleet_run_one_link);
    ("Cubic.on_acks 4-ACK run, slow start", `Quick,
      test_cubic_on_acks_slow_start);
    ("Cubic.on_acks 4-ACK run, avoidance", `Quick,
      test_cubic_on_acks_avoidance);
    ("Monitor.on_acks 4-ACK run", `Quick, test_monitor_on_acks);
    ("Fleet_env.step per flow", `Quick, test_fleet_env_step);
    ("Td3.update per policy period", `Quick, test_td3_update);
    ("Certify.certify N=50 per certificate", `Quick, test_certify_mlp);
    ("Certify.certify_tree N=50 per certificate", `Quick, test_certify_tree);
    ("Eval.eval_tcp per 1-s cell", `Quick, test_eval_tcp);
  ]
