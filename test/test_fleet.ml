(* Tests for the vectorized fleet simulator and its serving stack: flow
   independence (an N-flow [Fleet_env] equals N one-flow [Agent_env]
   views, bit for bit), determinism of the pool-parallel advancement
   across domain counts, shared links with plain flows and short last
   steps, rejected steps and late-starting agent flows, and the mixed
   Canopy-vs-TCP coexistence harness. The simulator's own trajectories
   are pinned by the golden digests in test_golden.ml. *)

module Env = Canopy_netsim.Env
module Trace = Canopy_trace.Trace
module Agent_env = Canopy_orca.Agent_env
module Fleet_env = Canopy_orca.Fleet_env
module Fleet_eval = Canopy.Fleet_eval
module Eval = Canopy.Eval
module Mlp = Canopy_nn.Mlp
module Mat = Canopy_tensor.Mat
module Pool = Canopy_util.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bits a = Array.map Int64.bits_of_float a
let clamp = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

(* Same helper as test_pool: a fresh default pool of [d] domains for the
   duration of [f], previous default restored afterwards. *)
let with_default_pool d f =
  let saved = Pool.default () in
  let pool = Pool.create ~domains:d () in
  Pool.set_default pool;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default saved;
      Pool.shutdown pool)
    (fun () -> f ())

let impaired =
  {
    Env.random_loss = 0.02;
    ack_jitter_ms = 3;
    reorder_prob = 0.1;
    reorder_ms = 8;
    seed = 11;
  }

(* ------------------------------------------------------------------ *)
(* Flow independence: N-flow Fleet_env vs N one-flow Agent_env views *)

let agent_cfg ?(impair = Env.no_impairments) ~duration_ms i =
  let mbps = 16. +. (8. *. float_of_int (i mod 3)) in
  let trace =
    Trace.constant ~name:(Printf.sprintf "a%d" (i mod 3)) ~duration_ms ~mbps
  in
  {
    (Agent_env.default_config ~trace ~min_rtt_ms:40 ~buffer_pkts:120
       ~duration_ms)
    with
    Agent_env.interval_ms = Some 40;
    impairments = impair;
  }

let test_fleet_env_matches_agent_env () =
  let n = 4 in
  let cfgs =
    Array.init n (fun i ->
        agent_cfg
          ~impair:(if i = 2 then impaired else Env.no_impairments)
          ~duration_ms:600 i)
  in
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 5)
      ~in_dim:(Agent_env.state_dim cfgs.(0))
      ~hidden:16 ~out_dim:1
  in
  let fenv = Fleet_env.create cfgs in
  let envs = Array.map Agent_env.create cfgs in
  let x = Mat.create ~rows:n ~cols:(Fleet_env.state_dim fenv) in
  let y = Mat.create_uninit ~rows:n ~cols:1 in
  let actions = Array.make n 0. in
  let step = ref 0 in
  let fin = ref false in
  while not !fin do
    Fleet_env.write_states fenv ~dst:x;
    for i = 0 to n - 1 do
      check_bool
        (Printf.sprintf "step %d flow %d: state bits" !step i)
        true
        (bits (Mat.row x i) = bits (Agent_env.state envs.(i)))
    done;
    Mlp.forward_eval_into ~dst:y actor x;
    for i = 0 to n - 1 do
      actions.(i) <- clamp (Mat.raw y).(i)
    done;
    let fr = Fleet_env.step fenv ~actions in
    let srs =
      Array.mapi (fun i env -> Agent_env.step env ~action:actions.(i)) envs
    in
    let tag what = Printf.sprintf "step %d: %s bits" !step what in
    check_bool (tag "reward") true
      (bits fr.Fleet_env.rewards
      = bits (Array.map (fun (r : Agent_env.step_result) -> r.raw_reward) srs));
    check_bool (tag "cwnd_tcp") true
      (bits fr.Fleet_env.cwnd_tcp
      = bits (Array.map (fun (r : Agent_env.step_result) -> r.cwnd_tcp) srs));
    check_bool (tag "cwnd_enforced") true
      (bits fr.Fleet_env.cwnd_enforced
      = bits
          (Array.map
             (fun (r : Agent_env.step_result) -> r.cwnd_enforced)
             srs));
    check_bool "finished agrees" true
      (fr.Fleet_env.finished = srs.(n - 1).Agent_env.finished);
    fin := fr.Fleet_env.finished;
    incr step
  done;
  check_int "decision steps" (600 / 40) !step

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts *)

(* 64 flows at a 300 ms interval put every advancement call at
   64 × 300 = 19 200 flow·ms — above the fleet's parallel threshold —
   so the 2- and 4-domain runs really execute on pool chunks. The full
   served episode (actions, rewards, windows) must be bit-identical to
   the 1-domain run; impaired flows keep the per-flow PRNGs in play. *)
let fleet_episode_bits cfgs actor =
  let acc = ref [] in
  let r =
    Fleet_eval.serve ~policy:(`Mlp actor)
      ~on_tick:(fun ~tick:_ ~actions ~result ->
        acc := bits result.Fleet_env.cwnd_enforced :: bits actions :: !acc)
      (Fleet_env.create cfgs)
  in
  (List.rev !acc, bits (Array.map (fun (f : Fleet_eval.flow_result) -> f.throughput_mbps) r.Fleet_eval.per_flow))

let test_fleet_domains_bit_identical () =
  let cfgs =
    Array.init 64 (fun i ->
        {
          (agent_cfg
             ~impair:
               (if i mod 9 = 0 then
                  {
                    Env.random_loss = 0.005;
                    ack_jitter_ms = 1;
                    reorder_prob = 0.02;
                    reorder_ms = 4;
                    seed = 50 + i;
                  }
                else Env.no_impairments)
             ~duration_ms:900 i)
          with
          Agent_env.interval_ms = Some 300;
        })
  in
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 9)
      ~in_dim:(Agent_env.state_dim cfgs.(0))
      ~hidden:16 ~out_dim:1
  in
  let reference =
    with_default_pool 1 (fun () -> fleet_episode_bits cfgs actor)
  in
  List.iter
    (fun d ->
      let got = with_default_pool d (fun () -> fleet_episode_bits cfgs actor) in
      check_bool
        (Printf.sprintf "%d domains == sequential" d)
        true (got = reference))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Batched serving loop *)

let test_fleet_eval_run () =
  let cfgs = Array.init 8 (fun i -> agent_cfg ~duration_ms:400 i) in
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 2)
      ~in_dim:(Agent_env.state_dim cfgs.(0))
      ~hidden:16 ~out_dim:1
  in
  let r = Fleet_eval.serve ~policy:(`Mlp actor) (Fleet_env.create cfgs) in
  check_int "flows" 8 r.Fleet_eval.flows;
  check_int "duration" 400 r.Fleet_eval.duration_ms;
  check_int "ticks" (400 / 40) r.Fleet_eval.decision_ticks;
  check_int "per-flow rows" 8 (Array.length r.Fleet_eval.per_flow);
  check_bool "jain in (0,1]" true
    (r.Fleet_eval.jain > 0. && r.Fleet_eval.jain <= 1.0000001);
  Array.iter
    (fun (f : Fleet_eval.flow_result) ->
      check_bool "throughput finite" true (Float.is_finite f.throughput_mbps);
      check_bool "qdelay finite" true (Float.is_finite f.avg_qdelay_ms);
      check_bool "reward finite" true (Float.is_finite f.avg_reward))
    r.Fleet_eval.per_flow

let test_fleet_env_validation () =
  check_bool "empty rejected" true
    (match Fleet_env.create [||] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let a = agent_cfg ~duration_ms:400 0 in
  let b = { a with Agent_env.interval_ms = Some 20 } in
  check_bool "mixed cadence rejected" true
    (match Fleet_env.create [| a; b |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let env = Fleet_env.create [| a; a |] in
  check_bool "wrong action count rejected" true
    (match Fleet_env.step env ~actions:[| 0. |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "out-of-range action rejected" true
    (match Fleet_env.step env ~actions:[| 0.; 1.5 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Shared links, plain flows and short steps *)

let cubic_plain () = Some (Eval.cubic_scheme ())

let test_fleet_env_plain_validation () =
  let a = agent_cfg ~duration_ms:400 0 in
  let rejects what f =
    check_bool what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "short plain rejected" (fun () ->
      Fleet_env.create ~plain:[| None |] [| a; a |]);
  rejects "short link rejected" (fun () ->
      Fleet_env.create ~link:[| 0 |] [| a; a |]);
  rejects "short start_ms rejected" (fun () ->
      Fleet_env.create ~start_ms:[| 0 |] [| a; a |]);
  let env = Fleet_env.create [| a |] in
  rejects "step ~ms:0 rejected" (fun () ->
      Fleet_env.step ~ms:0 env ~actions:[| 0. |]);
  rejects "step longer than an interval rejected" (fun () ->
      Fleet_env.step ~ms:41 env ~actions:[| 0. |])

(* An agent flow whose plain partner on its link starts after the
   episode is alone on that link: its per-step states, rewards and
   windows must equal a one-flow Fleet_env's, clean and with ACK jitter
   (the link's jitter draws are made for the agent's packets only). *)
let test_idle_plain_partner () =
  List.iter
    (fun (label, impair) ->
      let cfg = agent_cfg ~impair ~duration_ms:600 0 in
      let alone = Fleet_env.create [| cfg |] in
      let paired =
        Fleet_env.create ~link:[| 0; 0 |] ~start_ms:[| 0; 601 |]
          ~plain:[| None; cubic_plain () |] [| cfg; cfg |]
      in
      let sd = Fleet_env.state_dim alone in
      let actor =
        Mlp.actor ~rng:(Canopy_util.Prng.create 7) ~in_dim:sd ~hidden:16
          ~out_dim:1
      in
      let x1 = Mat.create ~rows:1 ~cols:sd in
      let x2 = Mat.create ~rows:2 ~cols:sd in
      let y = Mat.create_uninit ~rows:1 ~cols:1 in
      let step = ref 0 in
      while not (Fleet_env.finished alone) do
        let tag what = Printf.sprintf "%s step %d: %s" label !step what in
        Fleet_env.write_states alone ~dst:x1;
        Fleet_env.write_states paired ~dst:x2;
        check_bool (tag "state bits") true
          (bits (Mat.row x1 0) = bits (Mat.row x2 0));
        check_bool (tag "plain row zero") true
          (Array.for_all (fun v -> v = 0.) (Mat.row x2 1));
        Mlp.forward_eval_into ~dst:y actor x1;
        let a = clamp (Mat.raw y).(0) in
        let r1 = Fleet_env.step alone ~actions:[| a |] in
        let r2 = Fleet_env.step paired ~actions:[| a; Float.nan |] in
        let first (r : Fleet_env.step_result) =
          bits [| r.rewards.(0); r.cwnd_tcp.(0); r.cwnd_enforced.(0) |]
        in
        check_bool (tag "reward and window bits") true (first r1 = first r2);
        check_bool (tag "finished agrees") true
          (r1.Fleet_env.finished = r2.Fleet_env.finished);
        incr step
      done;
      check_int (label ^ ": decision steps") (600 / 40) !step;
      check_int (label ^ ": partner never sent") 0
        (Canopy_netsim.Fleet.sent (Fleet_env.fleet paired) ~flow:1))
    [
      ("clean", Env.no_impairments);
      ("ack jitter", { Env.no_impairments with ack_jitter_ms = 4; seed = 9 });
    ]

(* A running plain flow is its controller's: its action slot is never
   read (NaN passes, an agent flow's out-of-range action still fails),
   it scores no reward, and its live window is the controller's. *)
let test_plain_flow_runs_its_controller () =
  let cfg = agent_cfg ~duration_ms:400 0 in
  let ctrl = Eval.cubic_scheme () in
  let env =
    Fleet_env.create ~link:[| 0; 0 |] ~plain:[| None; Some ctrl |]
      [| cfg; cfg |]
  in
  let fleet = Fleet_env.fleet env in
  check_bool "agent action still checked" true
    (match Fleet_env.step env ~actions:[| 1.5; 0. |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  while not (Fleet_env.finished env) do
    let r = Fleet_env.step env ~actions:[| 0.25; Float.nan |] in
    check_bool "plain reward 0" true (r.Fleet_env.rewards.(1) = 0.);
    check_bool "agent reward finite" true
      (Float.is_finite r.Fleet_env.rewards.(0));
    Alcotest.(check (float 0.)) "plain window is the controller's"
      (Float.max 1. (ctrl.Canopy_cc.Controller.cwnd ()))
      (Canopy_netsim.Fleet.cwnd fleet ~flow:1)
  done;
  check_bool "plain flow delivered" true
    (Canopy_netsim.Fleet.delivered fleet ~flow:1 > 0)

(* [~ms] runs a short last interval that ends the episode exactly at
   [duration_ms]; a default step overruns it by the rest of an
   interval. *)
let test_short_last_step () =
  let cfg = agent_cfg ~duration_ms:100 0 in
  let run last =
    let env = Fleet_env.create [| cfg |] in
    for _ = 1 to 2 do
      ignore (Fleet_env.step env ~actions:[| 0. |] : Fleet_env.step_result)
    done;
    let r = last env in
    check_bool "finished" true r.Fleet_env.finished;
    Fleet_env.now_ms env
  in
  check_int "short last step" 100
    (run (fun env -> Fleet_env.step ~ms:20 env ~actions:[| 0. |]));
  check_int "default last step" 120
    (run (fun env -> Fleet_env.step env ~actions:[| 0. |]))

(* A step that rejects flow 1's action has not yet forced flow 0's
   windows or moved the clock, so a caller that catches and retries runs
   the episode a fresh env runs. *)
let test_rejected_step_changes_nothing () =
  let a = agent_cfg ~duration_ms:400 0 in
  let env = Fleet_env.create [| a; a |] in
  Alcotest.check_raises "flow 1 out of range"
    (Invalid_argument "Fleet_env.step: action out of range") (fun () ->
      ignore
        (Fleet_env.step env ~actions:[| 0.5; 2.0 |] : Fleet_env.step_result));
  let check_window what want got = Alcotest.(check (float 0.)) what want got in
  check_window "flow 0 cwnd_tcp" 10. (Fleet_env.cwnd_tcp env ~flow:0);
  check_window "flow 0 fleet window" 10.
    (Canopy_netsim.Fleet.cwnd (Fleet_env.fleet env) ~flow:0);
  check_int "clock" 0 (Fleet_env.now_ms env);
  let fresh = Fleet_env.create [| a; a |] in
  let step e = Fleet_env.step e ~actions:[| 0.5; 0.5 |] in
  let got = step env and want = step fresh in
  check_bool "retry == fresh first step (bits)" true
    (bits got.Fleet_env.rewards = bits want.Fleet_env.rewards
    && bits got.Fleet_env.cwnd_tcp = bits want.Fleet_env.cwnd_tcp
    && bits got.Fleet_env.cwnd_enforced = bits want.Fleet_env.cwnd_enforced
    && bits (Fleet_env.state env ~flow:0)
       = bits (Fleet_env.state fresh ~flow:0))

(* An agent flow that starts late takes no decision before it sends:
   until the step whose interval covers its start its window stays at
   the initial 10, and at the start it is one Eq. 1 decision from 10.
   Untrained actors drive it; a Cubic flow holds the link meanwhile. *)
let test_late_agent_flow_starts_at_initial_window () =
  let duration_ms = 2_400 and start = 2_000 in
  let trace = Trace.constant ~name:"late" ~duration_ms ~mbps:48. in
  let cfg =
    Agent_env.default_config ~trace ~min_rtt_ms:40
      ~buffer_pkts:
        (Canopy_cc.Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace
           ~min_rtt_ms:40)
      ~duration_ms
  in
  for seed = 1 to 6 do
    let env =
      Fleet_env.create ~link:[| 0; 0 |] ~start_ms:[| 0; start |]
        ~plain:[| cubic_plain (); None |] [| cfg; cfg |]
    in
    let actor =
      Mlp.actor
        ~rng:(Canopy_util.Prng.create seed)
        ~in_dim:(Fleet_env.state_dim env) ~hidden:32 ~out_dim:1
    in
    let x = Mat.create ~rows:2 ~cols:(Fleet_env.state_dim env) in
    let y = Mat.create_uninit ~rows:2 ~cols:1 in
    let actions = Array.make 2 0. in
    let started = ref false in
    while not !started do
      Fleet_env.write_states env ~dst:x;
      Mlp.forward_eval_into ~dst:y actor x;
      actions.(1) <- clamp (Mat.raw y).(1);
      let last_tick = Fleet_env.now_ms env + Fleet_env.interval_ms env in
      let r = Fleet_env.step env ~actions in
      let w = r.Fleet_env.cwnd_enforced.(1) in
      let tag what =
        Printf.sprintf "seed %d, step to %d ms: %s" seed last_tick what
      in
      if last_tick < start then begin
        Alcotest.(check (float 0.)) (tag "window") 10. w;
        Alcotest.(check (float 0.)) (tag "fleet window") 10.
          (Canopy_netsim.Fleet.cwnd (Fleet_env.fleet env) ~flow:1)
      end
      else begin
        check_bool (tag "one decision from 10") true (w >= 2.5 && w <= 40.);
        started := true
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Coexistence *)

let coexist_link duration_ms =
  Eval.link ~min_rtt_ms:40 ~bdp:2. ~duration_ms
    (Trace.constant ~name:"const48" ~duration_ms ~mbps:48.)

let test_coexist_cubic_pair_fair () =
  let r =
    Eval.eval_coexist
      ~flows:
        [
          Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
          Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
        ]
      (coexist_link 4_000)
  in
  check_int "two flows" 2 (Array.length r.Eval.flows);
  (* Two identical Cubics on one droptail queue: near-perfect fairness. *)
  check_bool "jain high" true (r.Eval.jain > 0.9);
  check_bool "utilization sane" true
    (r.Eval.utilization > 0.3 && r.Eval.utilization <= 1.0000001)

let test_coexist_canopy_vs_tcp_runs () =
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 1)
      ~in_dim:(5 * Canopy_orca.Observation.feature_count)
      ~hidden:16 ~out_dim:1
  in
  List.iter
    (fun (name, make) ->
      let r =
        Eval.eval_coexist
          ~flows:[ Eval.Coexist_canopy (`Mlp actor); Eval.Coexist_tcp (name, make) ]
          (coexist_link 3_000)
      in
      check_int (name ^ ": two flows") 2 (Array.length r.Eval.flows);
      check_bool (name ^ ": jain in (0,1]") true
        (r.Eval.jain > 0. && r.Eval.jain <= 1.0000001);
      let shares =
        Array.fold_left
          (fun acc (f : Eval.coexist_flow) -> acc +. f.share)
          0. r.Eval.flows
      in
      check_bool (name ^ ": shares sum to 1") true
        (Float.abs (shares -. 1.) < 1e-9);
      Array.iter
        (fun (f : Eval.coexist_flow) ->
          check_bool
            (name ^ ": " ^ f.Eval.scheme ^ " throughput finite")
            true
            (Float.is_finite f.throughput_mbps && f.throughput_mbps >= 0.))
        r.Eval.flows)
    [ ("cubic", Eval.cubic_scheme); ("bbr", Eval.bbr_scheme) ]

(* Degenerate mixes: a lone flow is trivially fair and owns every
   delivered packet; an all-TCP mix (zero Canopy flows) must run the
   exact same harness with no policy serving involved. *)
let test_coexist_degenerate_mixes () =
  let solo =
    Eval.eval_coexist
      ~flows:[ Eval.Coexist_tcp ("cubic", Eval.cubic_scheme) ]
      (coexist_link 3_000)
  in
  check_int "single flow" 1 (Array.length solo.Eval.flows);
  Alcotest.(check (float 1e-9)) "solo jain" 1.0 solo.Eval.jain;
  Alcotest.(check (float 1e-9)) "solo share" 1.0 solo.Eval.flows.(0).Eval.share;
  let trio =
    Eval.eval_coexist
      ~flows:
        [
          Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
          Eval.Coexist_tcp ("vegas", Eval.vegas_scheme);
          Eval.Coexist_tcp ("bbr", Eval.bbr_scheme);
        ]
      (coexist_link 3_000)
  in
  check_int "all-tcp trio" 3 (Array.length trio.Eval.flows);
  check_bool "trio jain in (0,1]" true
    (trio.Eval.jain > 0. && trio.Eval.jain <= 1.0000001);
  let shares =
    Array.fold_left
      (fun acc (f : Eval.coexist_flow) -> acc +. f.share)
      0. trio.Eval.flows
  in
  check_bool "trio shares sum to 1" true (Float.abs (shares -. 1.) < 1e-9)

(* The mixed harness serves Canopy flows through the pool-parallel GEMM,
   so its results must be bit-identical at any domain count. *)
let test_coexist_domains_bit_identical () =
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 3)
      ~in_dim:(5 * Canopy_orca.Observation.feature_count)
      ~hidden:16 ~out_dim:1
  in
  let run () =
    let r =
      Eval.eval_coexist
        ~flows:[ Eval.Coexist_canopy (`Mlp actor); Eval.Coexist_tcp ("cubic", Eval.cubic_scheme) ]
        (coexist_link 2_000)
    in
    ( bits
        (Array.map (fun (f : Eval.coexist_flow) -> f.throughput_mbps) r.Eval.flows),
      Int64.bits_of_float r.Eval.jain,
      Int64.bits_of_float r.Eval.utilization )
  in
  let want = with_default_pool 1 run in
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "domains %d == domains 1" d)
        true
        (with_default_pool d run = want))
    [ 2; 3 ]

(* Staggered arrivals: a flow that joins late delivers less than its
   simultaneous twin, an all-zero arrival vector is the bit-exact
   default, and a wrong-length vector is rejected. *)
let test_coexist_arrivals () =
  let flows =
    [
      Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
      Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
    ]
  in
  let base = Eval.eval_coexist ~flows (coexist_link 4_000) in
  let zeroed =
    Eval.eval_coexist ~arrivals:[| 0; 0 |] ~flows (coexist_link 4_000)
  in
  check_bool "zero arrivals == default (bits)" true
    (bits (Array.map (fun (f : Eval.coexist_flow) -> f.throughput_mbps) base.Eval.flows)
     = bits
         (Array.map (fun (f : Eval.coexist_flow) -> f.throughput_mbps) zeroed.Eval.flows)
    && Int64.bits_of_float base.Eval.jain = Int64.bits_of_float zeroed.Eval.jain);
  let late =
    Eval.eval_coexist ~arrivals:[| 0; 2_000 |] ~flows (coexist_link 4_000)
  in
  check_bool "late flow gets smaller share" true
    (late.Eval.flows.(1).Eval.share < late.Eval.flows.(0).Eval.share);
  check_bool "late arrival hurts fairness" true (late.Eval.jain < base.Eval.jain);
  check_bool "wrong-length arrivals rejected" true
    (match Eval.eval_coexist ~arrivals:[| 0 |] ~flows (coexist_link 2_000) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.check_raises "negative arrival rejected"
    (Invalid_argument "Eval.eval_coexist: arrivals") (fun () ->
      ignore
        (Eval.eval_coexist ~arrivals:[| 0; -1 |] ~flows (coexist_link 2_000)))

(* Determinism of the coexistence harness itself: same spec, same
   trajectory, and flow order does not change totals. *)
let test_coexist_deterministic () =
  let run () =
    let r =
      Eval.eval_coexist
        ~flows:
          [
            Eval.Coexist_tcp ("cubic", Eval.cubic_scheme);
            Eval.Coexist_tcp ("vegas", Eval.vegas_scheme);
          ]
        (coexist_link 2_000)
    in
    ( bits
        (Array.map (fun (f : Eval.coexist_flow) -> f.throughput_mbps) r.Eval.flows),
      Int64.bits_of_float r.Eval.jain )
  in
  check_bool "repeat run identical" true (run () = run ())

let suite =
  [
    Alcotest.test_case "fleet_env == per-flow Agent_env (bits)" `Quick
      test_fleet_env_matches_agent_env;
    Alcotest.test_case "fleet domains 2,4 == sequential" `Quick
      test_fleet_domains_bit_identical;
    Alcotest.test_case "fleet_eval serve result" `Quick test_fleet_eval_run;
    Alcotest.test_case "fleet_env validation" `Quick test_fleet_env_validation;
    Alcotest.test_case "coexist: cubic pair fair" `Quick
      test_coexist_cubic_pair_fair;
    Alcotest.test_case "coexist: canopy vs cubic/bbr" `Quick
      test_coexist_canopy_vs_tcp_runs;
    Alcotest.test_case "coexist: degenerate mixes" `Quick
      test_coexist_degenerate_mixes;
    Alcotest.test_case "coexist: staggered arrivals" `Quick
      test_coexist_arrivals;
    (* Reproducibility checks: across domain counts, then runs. *)
    Alcotest.test_case "coexist: domains 2,3 == 1 (bits)" `Quick
      test_coexist_domains_bit_identical;
    Alcotest.test_case "coexist: deterministic" `Quick
      test_coexist_deterministic;
    Alcotest.test_case "fleet_env plain/link/ms validation" `Quick
      test_fleet_env_plain_validation;
    Alcotest.test_case "idle plain partner == one-flow Fleet_env (bits)"
      `Quick test_idle_plain_partner;
    Alcotest.test_case "fleet_env plain flow runs its controller" `Quick
      test_plain_flow_runs_its_controller;
    Alcotest.test_case "fleet_env ~ms shortens the last step" `Quick
      test_short_last_step;
    Alcotest.test_case "fleet_env rejected step changes nothing" `Quick
      test_rejected_step_changes_nothing;
    Alcotest.test_case "fleet_env late agent flow starts at window 10" `Quick
      test_late_agent_flow_starts_at_initial_window;
  ]
