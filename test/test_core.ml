(* Tests for the canopy core: property definitions (Section 4.2),
   certificate construction and the interval distance (Sections 4.3-4.4),
   the evaluation harness (Section 6.1), and the certificate-in-the-loop
   trainer (Eq. 11). *)

open Canopy
open Canopy_nn
open Canopy_tensor
module Observation = Canopy_orca.Observation
module Interval = Canopy_absint.Interval
module Prng = Canopy_util.Prng

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let history = 5
let state_dim = history * Observation.feature_count

(* An actor computing a = tanh(w · x + b) through the real Mlp machinery,
   with every weight chosen by [weight_of : feature index -> float]. *)
let linear_actor ?(bias = 0.) weight_of =
  let w = Mat.init ~rows:1 ~cols:state_dim (fun _ j -> weight_of j) in
  Mlp.create ~in_dim:state_dim
    [
      Layer.Dense
        {
          w;
          b = [| bias |];
          dw = Mat.create ~rows:1 ~cols:state_dim;
          db = [| 0. |];
        };
      Layer.Tanh;
    ]

let constant_actor a =
  (* tanh(atanh a) = a for |a| < 1 *)
  let bias = 0.5 *. log ((1. +. a) /. (1. -. a)) in
  linear_actor ~bias (fun _ -> 0.)

let mid_state = Array.make state_dim 0.4

(* ------------------------------------------------------------------ *)
(* Property *)

let test_property_defaults () =
  (match Property.performance () with
  | Property.Performance { p; q } ->
      check_float "p" 0.75 p;
      check_float "q" 0.25 q
  | _ -> Alcotest.fail "expected performance");
  match Property.robustness () with
  | Property.Robustness { mu; epsilon } ->
      check_float "mu" 0.05 mu;
      check_float "eps" 0.01 epsilon
  | _ -> Alcotest.fail "expected robustness"

let test_property_validation () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Property.performance: thresholds must be in (0,1)")
    (fun () -> ignore (Property.performance ~p:1.5 ()));
  Alcotest.check_raises "q > p"
    (Invalid_argument "Property.performance: q > p") (fun () ->
      ignore (Property.performance ~p:0.3 ~q:0.6 ()));
  Alcotest.check_raises "mu" (Invalid_argument "Property.robustness: mu")
    (fun () -> ignore (Property.robustness ~mu:2. ()))

let test_property_cases () =
  check_int "performance has 2 cases" 2
    (List.length (Property.cases (Property.performance ())));
  check_int "robustness has 1 case" 1
    (List.length (Property.cases (Property.robustness ())))

let test_property_preconditions () =
  let perf = Property.performance () in
  let large = Property.precondition_delay perf Property.Large_delay in
  check_float "large lo" 0.75 (Interval.lo large);
  check_float "large hi" 1. (Interval.hi large);
  let small = Property.precondition_delay perf Property.Small_delay in
  check_float "small lo" 0. (Interval.lo small);
  check_float "small hi" 0.25 (Interval.hi small);
  let rob = Property.robustness () in
  let noise = Property.precondition_delay rob Property.Noise in
  check_float "noise lo" 0.95 (Interval.lo noise);
  check_float "noise hi" 1.05 (Interval.hi noise)

let test_property_case_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Property.precondition_delay: case mismatch") (fun () ->
      ignore
        (Property.precondition_delay (Property.performance ()) Property.Noise))

(* ------------------------------------------------------------------ *)
(* Certify: structure *)

let certify ?engine ?(actor = constant_actor 0.)
    ?(property = Property.performance ()) ?(n = 5) ?(state = mid_state)
    ?(cwnd_tcp = 100.) ?(prev_cwnd = 100.) () =
  Certify.certify ?engine ~actor ~property ~n_components:n ~history ~state
    ~cwnd_tcp ~prev_cwnd ()

let test_certify_component_counts () =
  let c = certify ~n:5 () in
  check_int "2 cases × 5" 10 (Array.length c.Certify.components);
  let r = certify ~property:(Property.robustness ()) ~n:7 () in
  check_int "robustness × 7" 7 (Array.length r.Certify.components)

let test_certify_delay_indices () =
  Alcotest.(check (list int)) "one per frame" [ 0; 7; 14; 21; 28 ]
    (Certify.delay_indices ~history:5)

let test_certify_distances_in_unit () =
  let c = certify () in
  Array.iter
    (fun comp ->
      check_bool "D in [0,1]" true
        (comp.Certify.distance >= 0. && comp.Certify.distance <= 1.))
    c.Certify.components;
  check_bool "r_verifier in [0,1]" true
    (c.Certify.r_verifier >= 0. && c.Certify.r_verifier <= 1.);
  check_bool "fcc in [0,1]" true (c.Certify.fcc >= 0. && c.Certify.fcc <= 1.)

let test_certify_fcc_consistent () =
  let c = certify () in
  let certified =
    Array.fold_left
      (fun n comp -> if comp.Certify.certified then n + 1 else n)
      0 c.Certify.components
  in
  check_float "fcc is the certified fraction"
    (float_of_int certified /. float_of_int (Array.length c.Certify.components))
    c.Certify.fcc;
  Alcotest.(check bool) "fcs iff all certified"
    (certified = Array.length c.Certify.components)
    c.Certify.fcs

let test_certify_validation () =
  Alcotest.check_raises "n" (Invalid_argument "Certify.certify: n_components")
    (fun () -> ignore (certify ~n:0 ()));
  Alcotest.check_raises "state dim"
    (Invalid_argument "Certify.certify: state dimension") (fun () ->
      ignore (certify ~state:[| 0.1 |] ()))

(* A NaN or infinite state entry, CWND_TCP or previous window is rejected
   up front by every certificate entry point, before any bound is built. *)
let test_certify_rejects_non_finite () =
  let tree = Canopy_distill.Tree.constant ~in_dim:state_dim 0. in
  let entry_points =
    [
      ( "Certify.certify",
        fun ~state ~cwnd_tcp ~prev_cwnd ->
          ignore (certify ~state ~cwnd_tcp ~prev_cwnd ()) );
      ( "Certify.certify_tree",
        fun ~state ~cwnd_tcp ~prev_cwnd ->
          ignore
            (Certify.certify_tree ~tree ~property:(Property.performance ())
               ~n_components:5 ~history ~state ~cwnd_tcp ~prev_cwnd ()) );
      ( "Certify.certify_adaptive",
        fun ~state ~cwnd_tcp ~prev_cwnd ->
          ignore
            (Certify.certify_adaptive ~actor:(constant_actor 0.)
               ~property:(Property.robustness ()) ~max_components:4 ~history
               ~state ~cwnd_tcp ~prev_cwnd ()) );
    ]
  in
  let poisoned v =
    let s = Array.copy mid_state in
    s.(state_dim - 1) <- v;
    s
  in
  List.iter
    (fun (what, run) ->
      List.iter
        (fun v ->
          let raises name f =
            Alcotest.check_raises
              (Printf.sprintf "%s %s %g" what name v)
              (Invalid_argument (what ^ ": non-finite state"))
              f
          in
          raises "state" (fun () ->
              run ~state:(poisoned v) ~cwnd_tcp:100. ~prev_cwnd:100.);
          raises "cwnd_tcp" (fun () ->
              run ~state:mid_state ~cwnd_tcp:v ~prev_cwnd:100.);
          raises "prev_cwnd" (fun () ->
              run ~state:mid_state ~cwnd_tcp:100. ~prev_cwnd:v))
        [ Float.nan; Float.infinity; Float.neg_infinity ])
    entry_points

(* ------------------------------------------------------------------ *)
(* Certify: semantics with hand-built controllers *)

let test_decreasing_controller_satisfies_large_delay () =
  (* A controller that always shrinks the window (a ≈ -1) provably never
     increases CWND: large-delay case fully certified, small-delay fully
     violated, so r_verifier = (1 + 0) / 2. *)
  let c = certify ~actor:(constant_actor (-0.999)) () in
  Array.iter
    (fun comp ->
      match comp.Certify.case with
      | Property.Large_delay ->
          check_bool "large certified" true comp.Certify.certified
      | Property.Small_delay ->
          check_float "small violated" 0. comp.Certify.distance
      | Property.Noise -> Alcotest.fail "unexpected case")
    c.Certify.components;
  check_float "Eq. 8 average" 0.5 c.Certify.r_verifier;
  check_bool "not fcs" false c.Certify.fcs

let test_increasing_controller_satisfies_small_delay () =
  let c = certify ~actor:(constant_actor 0.999) () in
  Array.iter
    (fun comp ->
      match comp.Certify.case with
      | Property.Large_delay ->
          check_float "large violated" 0. comp.Certify.distance
      | Property.Small_delay ->
          check_bool "small certified" true comp.Certify.certified
      | Property.Noise -> Alcotest.fail "unexpected case")
    c.Certify.components;
  check_float "Eq. 8 average" 0.5 c.Certify.r_verifier

let test_ideal_controller_fully_certified () =
  (* Weight < 0 on every delay dimension and a suitable bias: the action
     is strongly negative when all delays are high and strongly positive
     when all delays are low — the behaviour the performance property
     demands. With a large gain, certification succeeds in both cases. *)
  let delay_idx = Certify.delay_indices ~history in
  (* logit = −20·Σ d + 50 crosses zero at Σ d = 2.5, i.e. all five delay
     dims at 0.5 — halfway between q = 0.25 and p = 0.75. All delays at p
     give logit −25 (a ≈ −1); at q, logit +25 (a ≈ +1). *)
  let actor =
    linear_actor ~bias:50.
      (fun j -> if List.mem j delay_idx then -20. else 0.)
  in
  let c = certify ~actor ~cwnd_tcp:100. ~prev_cwnd:100. () in
  check_bool "fully certified" true c.Certify.fcs;
  check_float "r_verifier = 1" 1. c.Certify.r_verifier

let test_perverse_controller_fully_violating () =
  (* The opposite sign convention violates both cases everywhere. *)
  let delay_idx = Certify.delay_indices ~history in
  let actor =
    linear_actor ~bias:(-50.)
      (fun j -> if List.mem j delay_idx then 20. else 0.)
  in
  let c = certify ~actor ~cwnd_tcp:100. ~prev_cwnd:100. () in
  check_float "nothing certified" 0. c.Certify.fcc;
  check_float "r_verifier = 0" 0. c.Certify.r_verifier

let test_constant_controller_robust () =
  (* A controller that ignores its input is perfectly robust. *)
  let c =
    certify ~property:(Property.robustness ()) ~actor:(constant_actor 0.5) ()
  in
  check_bool "fcs" true c.Certify.fcs;
  check_float "fcc 1" 1. c.Certify.fcc

let test_sensitive_controller_not_robust () =
  (* A controller with huge gain on the delay inputs cannot be robust to
     multiplicative noise on them. *)
  let delay_idx = Certify.delay_indices ~history in
  (* Bias places the unperturbed state (all dims 0.4) at the steepest
     part of tanh, so ±5% input noise swings the action across its whole
     range. *)
  let actor =
    linear_actor ~bias:(-.(50. *. 5. *. 0.4))
      (fun j -> if List.mem j delay_idx then 50. else 0.)
  in
  let c = certify ~property:(Property.robustness ()) ~actor () in
  check_bool "violations found" true (c.Certify.fcc < 1.)

let test_certificate_action_bounds_sound () =
  (* The abstract action interval of every component must contain the
     concrete action at sampled delay values inside that component. *)
  let rng = Prng.create 4242 in
  let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:16 ~out_dim:1 in
  let property = Property.performance () in
  let c = certify ~actor ~property ~n:4 () in
  let delay_idx = Certify.delay_indices ~history in
  Array.iter
    (fun comp ->
      let case_iv = Property.precondition_delay property comp.Certify.case in
      let slices = Interval.split case_iv 4 in
      let slice = List.nth slices comp.Certify.index in
      for _ = 1 to 25 do
        let d = Interval.sample rng slice in
        let s = Array.copy mid_state in
        List.iter (fun i -> s.(i) <- d) delay_idx;
        let a =
          Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1. (Mlp.forward actor s).(0)
        in
        if not (Interval.contains comp.Certify.action a) then
          Alcotest.failf "action %f escapes %s" a
            (Format.asprintf "%a" Interval.pp comp.Certify.action)
      done)
    c.Certify.components

let test_certificate_output_bounds_sound () =
  (* Same soundness check at the ΔCWND level (after Eq. 1). *)
  let rng = Prng.create 777 in
  let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:16 ~out_dim:1 in
  let property = Property.performance () in
  let cwnd_tcp = 80. and prev_cwnd = 70. in
  let c = certify ~actor ~property ~n:5 ~cwnd_tcp ~prev_cwnd () in
  let delay_idx = Certify.delay_indices ~history in
  Array.iter
    (fun comp ->
      let case_iv = Property.precondition_delay property comp.Certify.case in
      let slice = List.nth (Interval.split case_iv 5) comp.Certify.index in
      for _ = 1 to 25 do
        let d = Interval.sample rng slice in
        let s = Array.copy mid_state in
        List.iter (fun i -> s.(i) <- d) delay_idx;
        let a =
          Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1. (Mlp.forward actor s).(0)
        in
        let dcwnd =
          Canopy_orca.Fleet_env.cwnd_of_action ~action:a ~cwnd_tcp -. prev_cwnd
        in
        check_bool "ΔCWND inside bound" true
          (Interval.contains comp.Certify.output dcwnd)
      done)
    c.Certify.components

let test_more_components_tighter_certificates () =
  (* Domain subdivision reduces over-approximation (Section 5): the mean
     certified fraction with N=10 must be at least that with N=1. *)
  let rng = Prng.create 31 in
  let mean_fcc n =
    let acc = ref 0. in
    for seed = 1 to 10 do
      ignore seed;
      let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
      let c = certify ~actor ~n () in
      acc := !acc +. c.Certify.fcc
    done;
    !acc /. 10.
  in
  let rng_state = Prng.copy rng in
  let f1 = mean_fcc 1 in
  (* replay the same actors for the n=10 measurement *)
  ignore rng_state;
  let f10 = mean_fcc 10 in
  check_bool
    (Printf.sprintf "N=10 (%.3f) >= N=1 (%.3f) - slack" f10 f1)
    true
    (f10 >= f1 -. 0.05)

let test_robustness_certificate_soundness () =
  let rng = Prng.create 99 in
  let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:16 ~out_dim:1 in
  let property = Property.robustness () in
  let cwnd_tcp = 50. in
  let c =
    certify ~actor ~property ~n:5 ~cwnd_tcp ~state:mid_state ()
  in
  let delay_idx = Certify.delay_indices ~history in
  let a0 =
    Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1. (Mlp.forward actor mid_state).(0)
  in
  let cwnd0 = Canopy_orca.Fleet_env.cwnd_of_action ~action:a0 ~cwnd_tcp in
  Array.iter
    (fun comp ->
      let factor_iv =
        Property.precondition_delay property Property.Noise
      in
      let slice = List.nth (Interval.split factor_iv 5) comp.Certify.index in
      for _ = 1 to 25 do
        let eta = Interval.sample rng slice in
        let s = Array.copy mid_state in
        List.iter (fun i -> s.(i) <- s.(i) *. eta) delay_idx;
        let a =
          Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1. (Mlp.forward actor s).(0)
        in
        let change =
          (Canopy_orca.Fleet_env.cwnd_of_action ~action:a ~cwnd_tcp -. cwnd0)
          /. cwnd0
        in
        check_bool "CWNDCHANGE inside bound" true
          (Interval.contains comp.Certify.output change)
      done)
    c.Certify.components

(* ------------------------------------------------------------------ *)
(* Eval *)

let small_trace =
  Canopy_trace.Synthetic.step_fluctuation ~duration_ms:4000 ~period_ms:1000
    ~low_mbps:12. ~high_mbps:24. ()

let test_eval_tcp_baselines () =
  let link = Eval.link ~min_rtt_ms:30 ~bdp:2. small_trace in
  let cubic = Eval.eval_tcp ~name:"cubic" Eval.cubic_scheme link in
  check_bool "utilization sane" true
    (cubic.Eval.utilization > 0.3 && cubic.Eval.utilization <= 1.);
  check_bool "no certificate for tcp" true (cubic.Eval.fcc = None)

let test_eval_policy_runs () =
  let link = Eval.link ~min_rtt_ms:30 ~bdp:2. small_trace in
  let res, steps =
    Eval.eval_policy ~name:"const" ~collect_steps:true
      ~policy:(`Mlp (constant_actor 0.)) ~history link
  in
  check_bool "steps collected" true (List.length steps > 10);
  check_bool "util positive" true (res.Eval.utilization > 0.);
  check_bool "no fcc without certificate" true (res.Eval.fcc = None)

let test_eval_policy_with_certificate () =
  let link = Eval.link ~min_rtt_ms:30 ~bdp:2. small_trace in
  let res, steps =
    Eval.eval_policy ~certificate:(Property.performance (), 10)
      ~collect_steps:true ~policy:(`Mlp (constant_actor (-0.9))) ~history link
  in
  (match (res.Eval.fcc, res.Eval.fcs) with
  | Some fcc, Some fcs ->
      (* the always-decrease controller certifies the large-delay case
         whenever the backbone suggestion has not outgrown the previous
         enforcement, so a substantial FCC must be reported, and FCS can
         never exceed FCC *)
      check_bool "fcc meaningful" true (fcc >= 0.3 && fcc <= 1.);
      check_bool "fcs <= fcc" true (fcs <= fcc +. 1e-9)
  | _ -> Alcotest.fail "expected certificates");
  List.iter
    (fun s ->
      match s.Eval.certificate with
      | Some c -> check_int "components" 20 (Array.length c.Certify.components)
      | None -> Alcotest.fail "missing step certificate")
    steps

let test_eval_policy_noise_determinism () =
  let link = Eval.link ~min_rtt_ms:30 ~bdp:2. small_trace in
  let run () =
    fst (Eval.eval_policy ~noise:(9, 0.05) ~policy:(`Mlp (constant_actor 0.2))
           ~history link)
  in
  let a = run () and b = run () in
  check_float "seeded noise reproducible" a.Eval.avg_qdelay_ms
    b.Eval.avg_qdelay_ms

let test_eval_mean_results () =
  let r name util =
    {
      Eval.scheme = name;
      trace = name;
      utilization = util;
      avg_thr_mbps = 10.;
      avg_qdelay_ms = 5.;
      p95_qdelay_ms = 10.;
      loss_rate = 0.;
      fcc = Some 0.5;
      fcs = None;
      refuted = None;
    }
  in
  let m = Eval.mean_results "group" [ r "a" 0.4; r "b" 0.8 ] in
  check_float "mean util" 0.6 m.Eval.utilization;
  (match m.Eval.fcc with
  | Some f -> check_float "mean fcc" 0.5 f
  | None -> Alcotest.fail "fcc lost");
  Alcotest.(check string) "group name" "group" m.Eval.trace;
  Alcotest.check_raises "empty" (Invalid_argument "Eval.mean_results: empty")
    (fun () -> ignore (Eval.mean_results "g" []))

let test_eval_noise_delta () =
  let base =
    {
      Eval.scheme = "x";
      trace = "t";
      utilization = 0.8;
      avg_thr_mbps = 10.;
      avg_qdelay_ms = 10.;
      p95_qdelay_ms = 20.;
      loss_rate = 0.;
      fcc = None;
      fcs = None;
      refuted = None;
    }
  in
  let noisy =
    { base with Eval.utilization = 0.6; avg_qdelay_ms = 15.; p95_qdelay_ms = 30. }
  in
  let d = Eval.noise_delta ~clean:base ~noisy in
  check_float "delay +50%" 50. d.Eval.d_avg_qdelay_pct;
  check_float "p95 +50%" 50. d.Eval.d_p95_qdelay_pct;
  check_float "util -25%" (-25.) d.Eval.d_utilization_pct

(* ------------------------------------------------------------------ *)
(* Trainer *)

let test_env_pool_table2 () =
  let pool = Trainer.env_pool ~n:8 ~seed:1 () in
  check_int "pool size" 8 (List.length pool);
  List.iter
    (fun (cfg : Canopy_orca.Agent_env.config) ->
      let bw = Canopy_trace.Trace.avg_mbps cfg.trace in
      check_bool "bw in Table-2 range" true (bw >= 6. && bw <= 192.);
      check_bool "stable link" true
        (Canopy_trace.Trace.min_mbps cfg.trace
        = Canopy_trace.Trace.max_mbps cfg.trace))
    pool

let test_trainer_validation () =
  Alcotest.check_raises "empty pool"
    (Invalid_argument "Trainer.train: empty env pool") (fun () ->
      ignore (Trainer.train (Trainer.default_config ~envs:[] ())));
  let envs = Trainer.env_pool ~n:1 ~seed:1 ~duration_ms:1000 () in
  Alcotest.check_raises "lambda" (Invalid_argument "Trainer.train: lambda")
    (fun () ->
      ignore (Trainer.train { (Trainer.default_config ~envs ()) with lambda = 2. }))

let tiny_config ?(lambda = 0.25) () =
  let envs =
    Trainer.env_pool ~n:2 ~bw_range_mbps:(12., 24.) ~rtt_range_ms:(20, 30)
      ~duration_ms:2000 ~seed:3 ()
  in
  {
    (Trainer.default_config ~lambda ~total_steps:60 ~envs ()) with
    log_every = 20;
  }

let test_trainer_epochs_reported () =
  let seen = ref 0 in
  let _, epochs =
    Trainer.train ~on_epoch:(fun _ -> incr seen) (tiny_config ())
  in
  check_int "3 epochs of 20" 3 (List.length epochs);
  check_int "callback per epoch" 3 !seen;
  List.iteri
    (fun i (e : Trainer.epoch) ->
      check_int "numbered" (i + 1) e.Trainer.epoch;
      check_bool "verifier reward bounded" true
        (e.Trainer.verifier_reward >= 0. && e.Trainer.verifier_reward <= 1.);
      check_bool "fcc bounded" true (e.Trainer.fcc >= 0. && e.Trainer.fcc <= 1.))
    epochs

let test_trainer_combined_reward_identity_lambda0 () =
  (* With λ=0 the combined reward must equal the raw reward. *)
  let _, epochs = Trainer.train (tiny_config ~lambda:0. ()) in
  List.iter
    (fun (e : Trainer.epoch) ->
      check_bool "combined = raw" true
        (Canopy_util.Mathx.approx_equal ~eps:1e-9 e.Trainer.combined_reward
           e.Trainer.raw_reward))
    epochs

let test_trainer_deterministic_given_seed () =
  let run () =
    let _, epochs = Trainer.train (tiny_config ()) in
    List.map (fun (e : Trainer.epoch) -> e.Trainer.raw_reward) epochs
  in
  check_bool "seeded training reproducible" true (run () = run ())

let test_load_or_train_caches () =
  let dir = Filename.temp_file "canopy" ".cache" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let cfg = tiny_config () in
      let actor1, epochs1 =
        Trainer.load_or_train ~cache_dir:dir ~tag:"t" cfg
      in
      check_bool "trained fresh" true (epochs1 <> []);
      let actor2, epochs2 =
        Trainer.load_or_train ~cache_dir:dir ~tag:"t" cfg
      in
      check_int "cache hit restores the curve" (List.length epochs1)
        (List.length epochs2);
      List.iter2
        (fun (a : Trainer.epoch) (b : Trainer.epoch) ->
          check_float "curve values preserved" a.Trainer.raw_reward
            b.Trainer.raw_reward)
        epochs1 epochs2;
      Alcotest.(check string) "same actor bits"
        (Canopy_nn.Checkpoint.to_string actor1)
        (Canopy_nn.Checkpoint.to_string actor2))

(* The cache is keyed by the config fingerprint: a cached actor planted
   under the tag is what an unchanged config reloads, and a changed
   lambda retrains over it instead. *)
let test_load_or_train_config_keyed () =
  let dir = Filename.temp_file "canopy" ".cache" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let cfg = tiny_config () in
      ignore (Trainer.load_or_train ~cache_dir:dir ~tag:"t" cfg);
      let planted =
        Mlp.actor ~rng:(Prng.create 99) ~in_dim:state_dim ~hidden:8 ~out_dim:1
      in
      Canopy_nn.Checkpoint.save planted (Filename.concat dir "t.actor.ckpt");
      let text = Canopy_nn.Checkpoint.to_string in
      let reloaded, _ = Trainer.load_or_train ~cache_dir:dir ~tag:"t" cfg in
      Alcotest.(check string) "unchanged config reloads the cached bits"
        (text planted) (text reloaded);
      let retrained, _ =
        Trainer.load_or_train ~cache_dir:dir ~tag:"t" (tiny_config ~lambda:0.5 ())
      in
      check_bool "changed lambda retrains" true (text retrained <> text planted);
      Alcotest.(check string) "retrained actor replaces the cached one"
        (text retrained)
        (text (Trainer.load_actor (Filename.concat dir "t.actor.ckpt"))))

(* The plain-ReLU layer kind is gone: a checkpoint that still carries a
   [relu] line fails loudly, naming the line, instead of loading. *)
let test_checkpoint_relu_rejected () =
  let rng = Prng.create 5 in
  let net =
    Mlp.create ~in_dim:2
      [ Layer.dense ~rng ~in_dim:2 ~out_dim:3; Layer.leaky_relu ();
        Layer.dense ~rng ~in_dim:3 ~out_dim:1 ]
  in
  let text =
    Checkpoint.to_string net |> String.split_on_char '\n'
    |> List.map (fun l ->
           if String.starts_with ~prefix:"leaky_relu" l then "relu" else l)
    |> String.concat "\n"
  in
  Alcotest.check_raises "of_string names the line"
    (Failure "Checkpoint: unknown layer header \"relu\"") (fun () ->
      ignore (Checkpoint.of_string text));
  let path = Filename.temp_file "canopy-relu" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Canopy_util.Atomic_file.write path text;
      check_bool "Trainer.load_actor raises" true
        (match Trainer.load_actor path with
        | _ -> false
        | exception Failure _ -> true))

(* ------------------------------------------------------------------ *)
(* Crash safety: strict curve parsing, resume determinism, watchdog *)

let test_load_curve_strict () =
  let path = Filename.temp_file "canopy-curve" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "epoch,steps,raw,verifier,combined,fcc,rollbacks\n\
         1,20,not-a-float,0.5,0.1,0.5,0\n";
      close_out oc;
      Alcotest.check_raises "malformed row"
        (Failure
           (Printf.sprintf
              "Trainer.load_curve: %s: line 2: malformed row \
               %S"
              path "1,20,not-a-float,0.5,0.1,0.5,0"))
        (fun () -> ignore (Trainer.load_curve path)))

let with_temp_dir f =
  let dir = Filename.temp_file "canopy-snap" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let actor_bits agent =
  List.concat_map
    (fun (v, _) -> Array.to_list (Array.map Int64.bits_of_float v))
    (Mlp.params (Canopy_rl.Td3.actor agent))

let curve_digest epochs =
  List.map
    (fun (e : Trainer.epoch) ->
      (e.Trainer.epoch, e.Trainer.raw_reward, e.Trainer.rollbacks))
    epochs

let test_trainer_resume_determinism () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "snap.ckpt" in
      let cfg = tiny_config () in
      (* Reference: same config trained to completion without ever being
         interrupted (same snapshot cadence, so same trajectory). *)
      let agent_ref, epochs_ref = Trainer.train ~snapshot_every:20 cfg in
      (* Crash mid-run: the simulated power cut propagates out of the
         trainer, leaving the last boundary snapshot on disk. *)
      (match
         Trainer.train ~snapshot_every:20 ~snapshot_path:path
           ~fault_hook:(fun ~step _ ->
             if step = 30 then failwith "simulated crash")
           cfg
       with
      | exception Failure msg when msg = "simulated crash" -> ()
      | _ -> Alcotest.fail "crash hook did not fire");
      check_bool "snapshot persisted before the crash" true
        (Sys.file_exists path);
      (* Resume must land exactly where the uninterrupted run did. *)
      let agent_res, epochs_res =
        Trainer.train ~snapshot_every:20 ~snapshot_path:path ~resume:path cfg
      in
      check_bool "resumed actor bit-identical" true
        (actor_bits agent_res = actor_bits agent_ref);
      check_bool "resumed curve identical" true
        (curve_digest epochs_res = curve_digest epochs_ref))

let test_trainer_resume_rejects_fingerprint_mismatch () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "snap.ckpt" in
      let cfg = tiny_config () in
      let _ = Trainer.train ~snapshot_every:30 ~snapshot_path:path cfg in
      let other = { cfg with lambda = 0.75 } in
      let contains_fingerprint msg =
        let re = "fingerprint" in
        let n = String.length re and m = String.length msg in
        let rec scan i =
          i + n <= m && (String.sub msg i n = re || scan (i + 1))
        in
        scan 0
      in
      match Trainer.train ~snapshot_every:30 ~resume:path other with
      | exception Failure msg ->
          check_bool "diagnostic names the fingerprint mismatch" true
            (contains_fingerprint msg)
      | _ -> Alcotest.fail "config mismatch accepted on resume")

let test_trainer_watchdog_rollback () =
  let cfg = tiny_config () in
  let injected = ref false in
  let agent, epochs =
    Trainer.train ~snapshot_every:20
      ~fault_hook:(fun ~step agent ->
        if step = 10 && not !injected then begin
          injected := true;
          match Mlp.params (Canopy_rl.Td3.actor agent) with
          | (v, _) :: _ -> v.(0) <- Float.nan
          | [] -> Alcotest.fail "no params"
        end)
      cfg
  in
  check_bool "fault was injected" true !injected;
  check_bool "rollback counted" true
    (match List.rev epochs with
    | last :: _ -> last.Trainer.rollbacks >= 1
    | [] -> false);
  check_int "full curve still produced" 3 (List.length epochs);
  check_bool "final agent finite" true (Canopy_rl.Td3.finite agent)

(* ------------------------------------------------------------------ *)
(* Engine equivalence: the batched IR path must reproduce the per-slice
   reference bit-for-bit up to GEMM reassociation (≤ 1e-9) on every
   certificate field, for both domains and both properties. The actor
   shapes here (and everywhere in training) have no consecutive dense
   layers, so IR fusion changes only the evaluation order. *)

let check_interval_close label a b =
  let ok =
    Float.abs (Interval.lo a -. Interval.lo b) <= 1e-9
    && Float.abs (Interval.hi a -. Interval.hi b) <= 1e-9
  in
  if not ok then
    Alcotest.failf "%s: %a <> %a" label Interval.pp a Interval.pp b

let check_certificates_match label (a : Certify.t) (b : Certify.t) =
  Alcotest.(check int)
    (label ^ ": component count")
    (Array.length a.Certify.components)
    (Array.length b.Certify.components);
  Array.iteri
    (fun i (ca : Certify.component) ->
      let cb = b.Certify.components.(i) in
      Alcotest.(check bool) (label ^ ": same case") true (ca.case = cb.case);
      Alcotest.(check int) (label ^ ": same index") ca.index cb.index;
      check_interval_close (label ^ ": slice") ca.slice cb.slice;
      check_interval_close (label ^ ": action") ca.action cb.action;
      check_interval_close (label ^ ": output") ca.output cb.output;
      check_float (label ^ ": distance") ca.distance cb.distance;
      Alcotest.(check bool)
        (label ^ ": certified flag") ca.certified cb.certified)
    a.Certify.components;
  check_float (label ^ ": r_verifier") a.Certify.r_verifier b.Certify.r_verifier;
  check_float (label ^ ": fcc") a.Certify.fcc b.Certify.fcc

let engine_sweep_actors () =
  let rng = Canopy_util.Prng.create 404 in
  List.init 3 (fun _ ->
      Mlp.actor ~rng ~in_dim:state_dim ~hidden:10 ~out_dim:1)

let test_batched_matches_per_slice_certify () =
  List.iter
    (fun actor ->
      List.iter
        (fun (dname, domain) ->
          List.iter
            (fun (pname, property) ->
              let run engine =
                Certify.certify ~engine ~domain ~actor ~property
                  ~n_components:5 ~history ~state:mid_state ~cwnd_tcp:100.
                  ~prev_cwnd:90. ()
              in
              check_certificates_match
                (Printf.sprintf "%s/%s" dname pname)
                (run Certify.Per_slice) (run Certify.Batched))
            [
              ("performance", Property.performance ());
              ("robustness", Property.robustness ());
            ])
        [
          ("box", Certify.Box_domain);
          ("zonotope", Certify.Zonotope_domain);
        ])
    (engine_sweep_actors ())

let test_batched_matches_per_slice_adaptive () =
  List.iter
    (fun actor ->
      List.iter
        (fun (dname, domain) ->
          let run engine =
            Certify.certify_adaptive ~engine ~domain ~actor
              ~property:(Property.performance ()) ~initial_components:2
              ~max_components:24 ~history ~state:mid_state ~cwnd_tcp:100.
              ~prev_cwnd:90. ()
          in
          check_certificates_match
            (Printf.sprintf "adaptive/%s" dname)
            (run Certify.Per_slice) (run Certify.Batched))
        [
          ("box", Certify.Box_domain);
          ("zonotope", Certify.Zonotope_domain);
        ])
    (engine_sweep_actors ())

let suite =
  [
    ("property defaults", `Quick, test_property_defaults);
    ("property validation", `Quick, test_property_validation);
    ("property cases", `Quick, test_property_cases);
    ("property preconditions", `Quick, test_property_preconditions);
    ("property case mismatch", `Quick, test_property_case_mismatch);
    ("certify component counts", `Quick, test_certify_component_counts);
    ("certify delay indices", `Quick, test_certify_delay_indices);
    ("certify distances in [0,1]", `Quick, test_certify_distances_in_unit);
    ("certify fcc consistency", `Quick, test_certify_fcc_consistent);
    ("certify validation", `Quick, test_certify_validation);
    ("certify rejects non-finite state", `Quick, test_certify_rejects_non_finite);
    ("decreasing controller: large-delay ✓", `Quick,
      test_decreasing_controller_satisfies_large_delay);
    ("increasing controller: small-delay ✓", `Quick,
      test_increasing_controller_satisfies_small_delay);
    ("ideal controller fully certified", `Quick,
      test_ideal_controller_fully_certified);
    ("perverse controller fully violating", `Quick,
      test_perverse_controller_fully_violating);
    ("constant controller robust", `Quick, test_constant_controller_robust);
    ("sensitive controller not robust", `Quick,
      test_sensitive_controller_not_robust);
    ("certificate action bounds sound", `Quick,
      test_certificate_action_bounds_sound);
    ("certificate output bounds sound", `Quick,
      test_certificate_output_bounds_sound);
    ("subdivision tightens certificates", `Quick,
      test_more_components_tighter_certificates);
    ("robustness certificate sound", `Quick,
      test_robustness_certificate_soundness);
    ("eval tcp baselines", `Quick, test_eval_tcp_baselines);
    ("eval policy runs", `Quick, test_eval_policy_runs);
    ("eval policy with certificate", `Quick, test_eval_policy_with_certificate);
    ("eval noise determinism", `Quick, test_eval_policy_noise_determinism);
    ("eval mean_results", `Quick, test_eval_mean_results);
    ("eval noise_delta", `Quick, test_eval_noise_delta);
    ("trainer env pool (Table 2)", `Quick, test_env_pool_table2);
    ("trainer validation", `Quick, test_trainer_validation);
    ("trainer epochs reported", `Slow, test_trainer_epochs_reported);
    ("trainer λ=0 identity", `Slow, test_trainer_combined_reward_identity_lambda0);
    ("trainer deterministic", `Slow, test_trainer_deterministic_given_seed);
    ("load_or_train caches", `Slow, test_load_or_train_caches);
    ("load_or_train keyed by config", `Slow, test_load_or_train_config_keyed);
    ("checkpoint relu line rejected", `Quick, test_checkpoint_relu_rejected);
    ("load_curve strict", `Quick, test_load_curve_strict);
    ("trainer resume determinism", `Slow, test_trainer_resume_determinism);
    ("trainer resume fingerprint check", `Slow,
      test_trainer_resume_rejects_fingerprint_mismatch);
    ("trainer watchdog rollback", `Slow, test_trainer_watchdog_rollback);
    ("batched = per-slice (certify)", `Quick,
      test_batched_matches_per_slice_certify);
    ("batched = per-slice (adaptive)", `Quick,
      test_batched_matches_per_slice_adaptive);
  ]

(* ------------------------------------------------------------------ *)
(* Counterexample search (refute) *)

let test_refute_finds_real_violation () =
  (* The always-grow controller genuinely violates the large-delay case:
     refute must produce a concrete witness with positive ΔCWND. *)
  let actor = constant_actor 0.9 in
  let c = certify ~actor () in
  let uncertified =
    Array.to_list c.Certify.components
    |> List.find (fun comp ->
           comp.Certify.case = Property.Large_delay
           && not comp.Certify.certified)
  in
  match
    Certify.refute ~rng:(Prng.create 11) ~actor ~history
      ~state:mid_state ~cwnd_tcp:100. ~prev_cwnd:100. uncertified
  with
  | Certify.Violation { state; output } ->
      check_bool "positive delta" true (output > 0.);
      check_int "witness has state shape" state_dim (Array.length state);
      (* replay the witness concretely: it must reproduce the output *)
      let a =
        Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.
          (Mlp.forward actor state).(0)
      in
      let w = Canopy_orca.Fleet_env.cwnd_of_action ~action:a ~cwnd_tcp:100. in
      check_float "witness replays" output (w -. 100.)
  | Certify.Unknown -> Alcotest.fail "expected a concrete violation"

let test_refute_certified_is_unknown () =
  let actor = constant_actor (-0.9) in
  let c = certify ~actor () in
  Array.iter
    (fun comp ->
      if comp.Certify.certified then
        check_bool "certified never refuted" true
          (Certify.refute ~rng:(Prng.create 11) ~actor ~history
             ~state:mid_state ~cwnd_tcp:100. ~prev_cwnd:100. comp
          = Certify.Unknown))
    c.Certify.components

let test_refute_witness_inside_slice () =
  let rng = Prng.create 505 in
  let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
  let c = certify ~actor ~n:4 () in
  Array.iter
    (fun comp ->
      match
        Certify.refute ~rng ~actor ~history ~state:mid_state ~cwnd_tcp:100.
          ~prev_cwnd:90. comp
      with
      | Certify.Unknown -> ()
      | Certify.Violation { state; _ } ->
          List.iter
            (fun idx ->
              check_bool "delay dims inside the slice" true
                (Interval.contains comp.Certify.slice state.(idx)))
            (Certify.delay_indices ~history))
    c.Certify.components

let test_refute_spurious_component_unknown () =
  (* A controller whose true output range satisfies the property but
     whose IBP bound straddles the boundary: the component is
     uncertified, yet refutation must fail (no real witness exists).
     Construct it via cancellation the box domain cannot see:
     a = tanh(w·d − w·d + ε) ≡ tanh(ε) > 0, but IBP widens w·d − w·d. *)
  let d0 = Observation.delay_index in
  let weights j =
    (* two opposing large weights on the SAME delay input of the newest
       frame via two hidden units *)
    ignore j;
    0.
  in
  ignore weights;
  let w1 = Mat.create ~rows:2 ~cols:state_dim in
  Mat.set w1 0 ((4 * Observation.feature_count) + d0) 30.;
  Mat.set w1 1 ((4 * Observation.feature_count) + d0) 30.;
  let w2 = Mat.of_arrays [| [| 1.; -1. |] |] in
  let actor =
    Mlp.create ~in_dim:state_dim
      [
        Layer.Dense
          { w = w1; b = [| 0.; 0. |]; dw = Mat.create ~rows:2 ~cols:state_dim;
            db = [| 0.; 0. |] };
        Layer.Dense
          { w = w2; b = [| 0.05 |]; dw = Mat.create ~rows:1 ~cols:2;
            db = [| 0. |] };
        Layer.Tanh;
      ]
  in
  (* true action = tanh(30d − 30d + 0.05) = tanh(0.05) > 0 for all d:
     the small-delay case (ΔCWND ≥ 0) truly holds with prev = cwnd_tcp.
     The per-layer box walk widens the cancellation; the IR engine fuses
     the two consecutive denses into W2·W1 = 0 and proves it exactly, so
     this test pins the Per_slice reference. *)
  let c =
    certify ~engine:Certify.Per_slice ~actor ~cwnd_tcp:100. ~prev_cwnd:100. ()
  in
  let small_uncertified =
    Array.to_list c.Certify.components
    |> List.filter (fun comp ->
           comp.Certify.case = Property.Small_delay
           && not comp.Certify.certified)
  in
  check_bool "box domain left components open (over-approximation)" true
    (small_uncertified <> []);
  List.iter
    (fun comp ->
      check_bool "spurious component cannot be refuted" true
        (Certify.refute ~rng:(Prng.create 11) ~actor ~history
           ~state:mid_state ~cwnd_tcp:100. ~prev_cwnd:100. comp
        = Certify.Unknown))
    small_uncertified;
  (* and the zonotope domain proves them (the cancellation is affine) *)
  let z =
    Certify.certify ~engine:Certify.Per_slice ~domain:Certify.Zonotope_domain
      ~actor ~property:(Property.performance ()) ~n_components:5 ~history
      ~state:mid_state ~cwnd_tcp:100. ~prev_cwnd:100. ()
  in
  Array.iter
    (fun comp ->
      if comp.Certify.case = Property.Small_delay then
        check_bool "zonotope certifies the cancellation" true
          comp.Certify.certified)
    z.Certify.components;
  (* so does the batched box engine: collapsing consecutive affines in
     the IR removes exactly this over-approximation *)
  let fused = certify ~actor ~cwnd_tcp:100. ~prev_cwnd:100. () in
  Array.iter
    (fun comp ->
      if comp.Certify.case = Property.Small_delay then
        check_bool "fused IR certifies the cancellation" true
          comp.Certify.certified)
    fused.Certify.components

let refute_suite =
  [
    ("refute finds real violation", `Quick, test_refute_finds_real_violation);
    ("refute: certified -> Unknown", `Quick, test_refute_certified_is_unknown);
    ("refute witness inside slice", `Quick, test_refute_witness_inside_slice);
    ("refute distinguishes spurious (zonotope proves)", `Quick,
      test_refute_spurious_component_unknown);
  ]

let suite = suite @ refute_suite

(* ------------------------------------------------------------------ *)
(* Odds and ends: curve io, link defaults *)

let test_curve_csv_roundtrip () =
  let epochs =
    [
      { Trainer.epoch = 1; steps = 100; raw_reward = 0.5;
        verifier_reward = 0.25; combined_reward = 0.4375; fcc = 0.1;
        rollbacks = 0 };
      { Trainer.epoch = 2; steps = 200; raw_reward = -0.25;
        verifier_reward = 1.; combined_reward = 0.0625; fcc = 0.9;
        rollbacks = 1 };
    ]
  in
  let path = Filename.temp_file "canopy" ".curve.csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trainer.save_curve epochs path;
      let back = Trainer.load_curve path in
      check_int "epoch count" 2 (List.length back);
      List.iter2
        (fun (a : Trainer.epoch) (b : Trainer.epoch) ->
          check_int "epoch" a.Trainer.epoch b.Trainer.epoch;
          check_float "raw" a.Trainer.raw_reward b.Trainer.raw_reward;
          check_float "verifier" a.Trainer.verifier_reward
            b.Trainer.verifier_reward;
          check_float "fcc" a.Trainer.fcc b.Trainer.fcc)
        epochs back)

let test_link_defaults () =
  let trace =
    Canopy_trace.Trace.constant ~name:"t" ~duration_ms:7000 ~mbps:10.
  in
  let l = Eval.link trace in
  check_int "duration defaults to trace" 7000 l.Eval.duration_ms;
  check_int "min rtt default" 40 l.Eval.min_rtt_ms;
  check_float "bdp default" 2. l.Eval.bdp_multiplier;
  let l2 = Eval.link ~duration_ms:3000 ~bdp:5. trace in
  check_int "duration override" 3000 l2.Eval.duration_ms;
  check_float "bdp override" 5. l2.Eval.bdp_multiplier

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let test_shield_verdict_pp () =
  let s = Format.asprintf "%a" Shield.pp_verdict Shield.Unconstrained in
  check_bool "pp unconstrained" true (s = "unconstrained");
  let s =
    Format.asprintf "%a" Shield.pp_verdict
      (Shield.Clamped
         { case = Property.Large_delay; original = 0.9; enforced = 0. })
  in
  check_bool "pp clamped mentions case" true
    (contains_substring s "large-delay")

let misc_suite =
  [
    ("trainer curve csv roundtrip", `Quick, test_curve_csv_roundtrip);
    ("eval link defaults", `Quick, test_link_defaults);
    ("shield verdict pp", `Quick, test_shield_verdict_pp);
  ]

let suite = suite @ misc_suite
