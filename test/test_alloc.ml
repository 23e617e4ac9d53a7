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
   collections fall. The budgets leave about 1% of headroom above the
   counts measured when they were set, so a kernel path that differs by
   a closure or two (OCaml GEMM kernels on hosts without AVX2) stays
   inside them. *)

open Canopy_util
module Mlp = Canopy_nn.Mlp
module Td3 = Canopy_rl.Td3
module Fleet = Canopy_netsim.Fleet
module Env = Canopy_netsim.Env
module Trace = Canopy_trace.Trace

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

let within what ~budget words =
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
  within "Mlp.forward, minor" ~budget:156. minor;
  within "Mlp.forward, major" ~budget:0. major

(* 64 one-flow links on one constant 24 Mbps trace with Cubic handlers:
   the per-link·ms cost of the link path, after 2 s of warm-up. *)
let test_fleet_run () =
  at_one_domain @@ fun () ->
  let links = 64 and ms = 4_000 in
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
  let minor, major =
    words_per_call ~n:1 (fun () -> Fleet.run fleet handlers ~ms)
  in
  let per_link_ms x = x /. float_of_int (links * ms) in
  within "Fleet.run per link·ms, minor" ~budget:0.064 (per_link_ms minor);
  within "Fleet.run per link·ms, major" ~budget:0.016 (per_link_ms major)

(* One policy period (two updates: both critics twice, the actor and the
   targets once) at the trainer's shape. *)
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
  within "Td3.update policy period, minor" ~budget:13_630. minor;
  within "Td3.update policy period, major" ~budget:178_000. major

let suite =
  [
    ("Scratch.get front hit", `Quick, test_scratch_front_hit);
    ("Mlp.forward per call", `Quick, test_mlp_forward);
    ("Fleet.run per link·ms", `Quick, test_fleet_run);
    ("Td3.update per policy period", `Quick, test_td3_update);
  ]
