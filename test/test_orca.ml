(* Tests for canopy_orca: Table-1 observations and normalization, the
   monitoring loop (with the measurement-noise model), the power reward
   (Eqs. 2-3), and the Eq.-1 agent environment semantics. *)

open Canopy_orca
module Env = Canopy_netsim.Env
module Trace = Canopy_trace.Trace
module Prng = Canopy_util.Prng

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let obs ?(thr = 10.) ?(loss = 0) ?(qdelay = 5.) ?(n = 20) ?(m = 40)
    ?(srtt = 25.) ?(cwnd = 30.) ?(min_rtt = 20.) () =
  {
    Observation.thr_mbps = thr;
    loss_pkts = loss;
    avg_qdelay_ms = qdelay;
    n_acks = n;
    interval_ms = m;
    srtt_ms = srtt;
    cwnd_pkts = cwnd;
    min_rtt_ms = min_rtt;
  }

(* ------------------------------------------------------------------ *)
(* Observation *)

let test_delay_norm_definition () =
  (* d̂ = qdelay / (qdelay + minRTT) = 1 - invRTT *)
  check_float "zero qdelay" 0.
    (Observation.delay_norm_of_qdelay ~qdelay_ms:0. ~min_rtt_ms:20.);
  check_float "qdelay = minRTT -> 0.5" 0.5
    (Observation.delay_norm_of_qdelay ~qdelay_ms:20. ~min_rtt_ms:20.);
  check_float "qdelay = 3 minRTT -> 0.75" 0.75
    (Observation.delay_norm_of_qdelay ~qdelay_ms:60. ~min_rtt_ms:20.)

let test_delay_norm_roundtrip () =
  List.iter
    (fun d ->
      let q = Observation.qdelay_of_delay_norm ~delay_norm:d ~min_rtt_ms:20. in
      check_bool "roundtrip" true
        (Canopy_util.Mathx.approx_equal ~eps:1e-9
           (Observation.delay_norm_of_qdelay ~qdelay_ms:q ~min_rtt_ms:20.)
           d))
    [ 0.1; 0.25; 0.5; 0.75; 0.9 ]

let test_features_bounded () =
  let f = Observation.to_features ~thr_scale_mbps:50. (obs ()) in
  check_int "feature count" Observation.feature_count (Array.length f);
  Array.iter (fun x -> check_bool "in [0,1]" true (x >= 0. && x <= 1.)) f

let test_delay_feature_position () =
  let f =
    Observation.to_features ~thr_scale_mbps:50. (obs ~qdelay:20. ~min_rtt:20. ())
  in
  check_float "delay at delay_index" 0.5 f.(Observation.delay_index)

let test_feature_monotone_in_delay () =
  let f_lo =
    Observation.to_features ~thr_scale_mbps:50. (obs ~qdelay:1. ())
  in
  let f_hi =
    Observation.to_features ~thr_scale_mbps:50. (obs ~qdelay:100. ())
  in
  check_bool "delay feature grows" true
    (f_hi.(Observation.delay_index) > f_lo.(Observation.delay_index))

let test_loss_feature () =
  let f = Observation.to_features ~thr_scale_mbps:50. (obs ~loss:20 ~n:20 ()) in
  check_float "half lost" 0.5 f.(2);
  let f0 = Observation.to_features ~thr_scale_mbps:50. (obs ~loss:0 ()) in
  check_float "no loss" 0. f0.(2)

let test_thr_scaling () =
  let f = Observation.to_features ~thr_scale_mbps:20. (obs ~thr:10. ()) in
  check_float "thr normalized" 0.5 f.(1);
  let f0 = Observation.to_features ~thr_scale_mbps:0. (obs ()) in
  check_float "zero scale safe" 0. f0.(1)

let test_zero_features () =
  check_int "zero frame size" Observation.feature_count
    (Array.length Observation.zero_features)

(* ------------------------------------------------------------------ *)
(* Monitor *)

let test_monitor_accumulates () =
  let m = Monitor.create ~min_rtt_ms:20 () in
  let h = Monitor.handlers m in
  h.Env.on_acks ~now_ms:10 ~rtt_ms:30 ~first_seq:0 ~count:1 ~delivered:1;
  h.Env.on_acks ~now_ms:20 ~rtt_ms:40 ~first_seq:1 ~count:1 ~delivered:2;
  h.Env.on_loss ~now_ms:25 ~count:1;
  let o = Monitor.take m ~now_ms:40 ~srtt_ms:0. ~cwnd_pkts:12. in
  check_int "acks" 2 o.Observation.n_acks;
  check_int "losses" 1 o.Observation.loss_pkts;
  check_int "interval" 40 o.Observation.interval_ms;
  (* avg rtt 35 - minRTT 20 = 15 qdelay *)
  check_float "qdelay" 15. o.Observation.avg_qdelay_ms;
  check_float "cwnd" 12. o.Observation.cwnd_pkts;
  (* throughput: 2 pkts × 1500B × 8 / 40ms *)
  check_float "thr" (2. *. 1500. *. 8. /. 1e6 /. 0.04) o.Observation.thr_mbps

let test_monitor_resets_between_intervals () =
  let m = Monitor.create ~min_rtt_ms:20 () in
  let h = Monitor.handlers m in
  h.Env.on_acks ~now_ms:10 ~rtt_ms:30 ~first_seq:0 ~count:1 ~delivered:1;
  ignore (Monitor.take m ~now_ms:20 ~srtt_ms:0. ~cwnd_pkts:10.);
  let o = Monitor.take m ~now_ms:40 ~srtt_ms:0. ~cwnd_pkts:10. in
  check_int "fresh interval" 0 o.Observation.n_acks;
  check_int "interval relative" 20 o.Observation.interval_ms

let test_monitor_empty_interval_qdelay_zero () =
  let m = Monitor.create ~min_rtt_ms:20 () in
  let o = Monitor.take m ~now_ms:20 ~srtt_ms:0. ~cwnd_pkts:10. in
  check_float "no acks -> zero qdelay" 0. o.Observation.avg_qdelay_ms

(* The sender's smoothed RTT passes through; with none yet (0) the
   interval's average RTT stands in. *)
let test_monitor_srtt_from_sender () =
  let m = Monitor.create ~min_rtt_ms:20 () in
  let h = Monitor.handlers m in
  h.Env.on_acks ~now_ms:10 ~rtt_ms:30 ~first_seq:0 ~count:2 ~delivered:2;
  let o = Monitor.take m ~now_ms:20 ~srtt_ms:0. ~cwnd_pkts:10. in
  check_float "no srtt: average rtt" 30. o.Observation.srtt_ms;
  h.Env.on_acks ~now_ms:30 ~rtt_ms:50 ~first_seq:2 ~count:1 ~delivered:3;
  let o = Monitor.take m ~now_ms:40 ~srtt_ms:33.5 ~cwnd_pkts:10. in
  check_float "sender's srtt" 33.5 o.Observation.srtt_ms

let test_monitor_noise_bounds () =
  let rng = Prng.create 77 in
  let m = Monitor.create ~delay_noise:(rng, 0.05) ~min_rtt_ms:20 () in
  let h = Monitor.handlers m in
  for i = 1 to 50 do
    h.Env.on_acks ~now_ms:i ~rtt_ms:60 ~first_seq:i ~count:1 ~delivered:i;
    let o = Monitor.take m ~now_ms:(i * 20) ~srtt_ms:0. ~cwnd_pkts:10. in
    let noise = Monitor.last_qdelay_noise m in
    check_bool "noise within ±5%" true (noise >= 0.95 && noise <= 1.05);
    check_bool "qdelay perturbed accordingly" true
      (Canopy_util.Mathx.approx_equal ~eps:1e-9 o.Observation.avg_qdelay_ms
         (40. *. noise))
  done

let test_monitor_no_noise_factor_one () =
  let m = Monitor.create ~min_rtt_ms:20 () in
  ignore (Monitor.take m ~now_ms:20 ~srtt_ms:0. ~cwnd_pkts:10.);
  check_float "factor 1" 1. (Monitor.last_qdelay_noise m)

(* A run of ACKs or losses leaves the monitor where the same events one
   by one leave it: every observation field, bit for bit, after runs of
   growing length at changing RTTs. *)
let test_monitor_runs_match_single_events () =
  let a = Monitor.create ~min_rtt_ms:20 ()
  and b = Monitor.create ~min_rtt_ms:20 () in
  let delivered = ref 0 in
  for step = 1 to 40 do
    let now_ms = step * 3 and rtt_ms = 20 + (step * 7 mod 45) in
    let count = 1 + (step mod 6) in
    let first_seq = !delivered in
    delivered := !delivered + count;
    Monitor.on_acks a ~now_ms ~rtt_ms ~first_seq ~count ~delivered:!delivered;
    for k = 0 to count - 1 do
      Monitor.on_acks b ~now_ms ~rtt_ms ~first_seq:(first_seq + k) ~count:1
        ~delivered:(!delivered - count + 1 + k)
    done;
    let losses = step mod 3 in
    if losses > 0 then Monitor.on_loss a ~now_ms ~count:losses;
    for _ = 1 to losses do
      Monitor.on_loss b ~now_ms ~count:1
    done;
    if step mod 8 = 0 then begin
      let oa = Monitor.take a ~now_ms ~srtt_ms:0. ~cwnd_pkts:10.
      and ob = Monitor.take b ~now_ms ~srtt_ms:0. ~cwnd_pkts:10. in
      let fields (o : Observation.t) =
        List.map Int64.bits_of_float
          [
            o.thr_mbps;
            float_of_int o.loss_pkts;
            o.avg_qdelay_ms;
            float_of_int o.n_acks;
            o.srtt_ms;
          ]
      in
      check_bool "same observation" true
        (List.equal Int64.equal (fields oa) (fields ob))
    end
  done

let test_monitor_rejects_bad_noise () =
  Alcotest.check_raises "mu >= 1"
    (Invalid_argument "Monitor.create: noise amplitude") (fun () ->
      ignore (Monitor.create ~delay_noise:(Prng.create 1, 1.5) ~min_rtt_ms:20 ()))

(* The monitor as it was before it summed a run in one addition and
   read the sender's smoothed RTT: the interval's RTT sum and its own
   srtt EWMA, folded in one ACK at a time (no noise). The oracles below
   hold [Monitor] plus the backbone's [Cubic.srtt_ms] to it. *)
module Per_ack_monitor = struct
  type t = {
    min_rtt_ms : int;
    mutable acks : int;
    mutable losses : int;
    mutable last_take_ms : int;
    mutable rtt_sum_ms : float;
    mutable srtt_ms : float;
  }

  let create ~min_rtt_ms =
    {
      min_rtt_ms;
      acks = 0;
      losses = 0;
      last_take_ms = 0;
      rtt_sum_ms = 0.;
      srtt_ms = 0.;
    }

  let on_acks t ~rtt_ms ~count =
    t.acks <- t.acks + count;
    let rtt = float_of_int rtt_ms in
    for _ = 1 to count do
      t.rtt_sum_ms <- t.rtt_sum_ms +. rtt;
      t.srtt_ms <-
        (if t.srtt_ms = 0. then rtt
         else (0.875 *. t.srtt_ms) +. (0.125 *. rtt))
    done

  let on_loss t ~count = t.losses <- t.losses + count

  let take t ~now_ms ~cwnd_pkts =
    let interval_ms = Int.max 1 (now_ms - t.last_take_ms) in
    let avg_rtt =
      if t.acks = 0 then float_of_int t.min_rtt_ms
      else t.rtt_sum_ms /. float_of_int t.acks
    in
    let qdelay = Float.max 0. (avg_rtt -. float_of_int t.min_rtt_ms) in
    let thr_mbps =
      float_of_int t.acks *. float_of_int Env.default_mtu *. 8. /. 1e6
      /. (float_of_int interval_ms /. 1000.)
    in
    let obs =
      {
        Observation.thr_mbps;
        loss_pkts = t.losses;
        avg_qdelay_ms = qdelay *. 1.;
        n_acks = t.acks;
        interval_ms;
        srtt_ms = (if t.srtt_ms = 0. then avg_rtt else t.srtt_ms);
        cwnd_pkts;
        min_rtt_ms = float_of_int t.min_rtt_ms;
      }
    in
    t.acks <- 0;
    t.losses <- 0;
    t.rtt_sum_ms <- 0.;
    t.last_take_ms <- now_ms;
    obs
end

(* Every field of an observation, as bits. *)
let obs_bits (o : Observation.t) =
  List.map Int64.bits_of_float
    [
      o.thr_mbps;
      float_of_int o.loss_pkts;
      o.avg_qdelay_ms;
      float_of_int o.n_acks;
      float_of_int o.interval_ms;
      o.srtt_ms;
      o.cwnd_pkts;
      o.min_rtt_ms;
    ]

let same_obs a b = List.equal Int64.equal (obs_bits a) (obs_bits b)

(* A fleet episode against its replica with the per-ACK monitor: 64
   agent flows on their own links (every suite trace, minRTT 20-50 ms,
   1-3 BDP buffers, random actions) through [Fleet_env], and the same
   links stepped by hand the way [Fleet_env.step] steps them (Eq. 1's
   window forced on Cubic and the link, Cubic refreshing the link's
   window after every millisecond), with Cubic and [Per_ack_monitor] on
   each flow. Every observation [Fleet_env] takes must be the replica's,
   bit for bit; its srtt is the replica monitor's own EWMA, so a
   [Fleet_env] that read Cubic's srtt at the wrong time fails. *)
let test_fleet_env_matches_per_ack_monitor () =
  let flows = 64 and interval_ms = 40 and duration_ms = 1_600 in
  let traces = Array.of_list (Canopy_trace.Suite.all ~duration_ms ()) in
  let cfgs =
    Array.init flows (fun i ->
        let trace = traces.(i mod Array.length traces) in
        let min_rtt_ms = 20 + (10 * (i mod 4)) in
        let bdp =
          Env.bdp_pkts ~mbps:(Trace.avg_mbps trace) ~min_rtt_ms
            ~mtu_bytes:Env.default_mtu
        in
        {
          (Agent_env.default_config ~trace ~min_rtt_ms
             ~buffer_pkts:(Int.max 2 (bdp * (1 + (i mod 3))))
             ~duration_ms)
          with
          interval_ms = Some interval_ms;
        })
  in
  let env = Fleet_env.create cfgs in
  let fleet =
    Canopy_netsim.Fleet.create
      (Array.map
         (fun (c : Agent_env.config) ->
           {
             Env.trace = c.trace;
             min_rtt_ms = c.min_rtt_ms;
             buffer_pkts = c.buffer_pkts;
             mtu_bytes = Env.default_mtu;
             initial_cwnd = 10.;
             impairments = c.impairments;
           })
         cfgs)
  in
  let cubic = Array.init flows (fun _ -> Canopy_cc.Cubic.create ()) in
  let mon =
    Array.map
      (fun (c : Agent_env.config) ->
        Per_ack_monitor.create ~min_rtt_ms:c.min_rtt_ms)
      cfgs
  in
  let handlers =
    Array.init flows (fun i ->
        {
          Env.on_acks =
            (fun ~now_ms ~rtt_ms ~first_seq ~count ~delivered ->
              Canopy_cc.Cubic.on_acks cubic.(i) ~now_ms ~rtt_ms ~first_seq
                ~count ~delivered;
              Per_ack_monitor.on_acks mon.(i) ~rtt_ms ~count);
          on_loss =
            (fun ~now_ms ~count ->
              Canopy_cc.Cubic.on_loss cubic.(i) ~now_ms ~count;
              Per_ack_monitor.on_loss mon.(i) ~count);
        })
  in
  let after_tick i =
    Canopy_netsim.Fleet.set_cwnd fleet ~flow:i
      (Canopy_cc.Cubic.cwnd cubic.(i))
  in
  let rng = Prng.create 29 in
  let steps = ref 0 and losses = ref 0 and mismatched = ref 0 in
  while not (Fleet_env.finished env) do
    let actions = Array.init flows (fun _ -> Prng.uniform rng (-1.) 1.) in
    let got = Array.make flows None in
    let r =
      Fleet_env.step env ~actions ~observe:(fun i o -> got.(i) <- Some o)
    in
    Array.iteri
      (fun i w ->
        Canopy_cc.Cubic.force_cwnd cubic.(i) w;
        Canopy_netsim.Fleet.set_cwnd fleet ~flow:i w)
      r.cwnd_enforced;
    Canopy_netsim.Fleet.run ~after_tick fleet handlers ~ms:interval_ms;
    let now_ms = Canopy_netsim.Fleet.now_ms fleet in
    for i = 0 to flows - 1 do
      let want =
        Per_ack_monitor.take mon.(i) ~now_ms ~cwnd_pkts:r.cwnd_enforced.(i)
      in
      losses := !losses + want.loss_pkts;
      if not (same_obs want (Option.get got.(i))) then incr mismatched
    done;
    incr steps
  done;
  check_int "whole episode" (duration_ms / interval_ms) !steps;
  check_bool "losses reached the monitors" true (!losses > 0);
  check_int "observations off the per-ACK monitor's" 0 !mismatched

(* ------------------------------------------------------------------ *)
(* Reward (Eqs. 2-3) *)

let test_reward_increases_with_throughput () =
  let r = Reward.create () in
  let low = Reward.of_observation r (obs ~thr:10. ~qdelay:0. ()) in
  (* thr_max is now 10; a higher-thr observation raises thr_max to 20 *)
  let high = Reward.of_observation r (obs ~thr:20. ~qdelay:0. ()) in
  check_bool "thr max tracked" true (Reward.thr_max_mbps r = 20.);
  check_bool "reward positive" true (low > 0. && high > 0.)

let test_reward_decreases_with_delay () =
  let r = Reward.create () in
  ignore (Reward.of_observation r (obs ~thr:20. ~qdelay:0. ()));
  let small_delay = Reward.of_observation r (obs ~thr:20. ~qdelay:1. ()) in
  let large_delay = Reward.of_observation r (obs ~thr:20. ~qdelay:100. ()) in
  check_bool "delay punished" true (large_delay < small_delay)

let test_reward_forgiveness_band () =
  (* Within [d_min, beta*d_min] the delay is forgiven: rewards equal. *)
  let r = Reward.create () in
  ignore (Reward.of_observation r (obs ~thr:20. ~qdelay:0. ()));
  let a = Reward.of_observation r (obs ~thr:20. ~qdelay:0. ()) in
  let b = Reward.of_observation r (obs ~thr:20. ~qdelay:4. ()) in
  (* qdelay 4ms, minRTT 20 -> RTT 24 <= 1.25×20 = 25: forgiven *)
  check_float "forgiven" a b

let test_reward_penalizes_loss () =
  let r = Reward.create () in
  ignore (Reward.of_observation r (obs ~thr:20. ()));
  let clean = Reward.of_observation r (obs ~thr:20. ~loss:0 ()) in
  let lossy = Reward.of_observation r (obs ~thr:20. ~loss:50 ()) in
  check_bool "loss punished" true (lossy < clean)

let test_reward_clipped () =
  let r = Reward.create () in
  ignore (Reward.of_observation r (obs ~thr:20. ()));
  let terrible = Reward.of_observation r (obs ~thr:1. ~loss:10_000 ()) in
  check_bool "clipped at -1" true (terrible >= -1.);
  let great = Reward.of_observation r (obs ~thr:20. ~qdelay:0. ()) in
  check_bool "clipped at 1" true (great <= 1.)

let test_reward_zero_before_any_throughput () =
  let r = Reward.create () in
  check_float "cold start" 0. (Reward.of_observation r (obs ~thr:0. ()))

(* ------------------------------------------------------------------ *)
(* Agent environment (Eq. 1) *)

let make_env ?delay_noise ?(mbps = 24.) ?(min_rtt = 40) ?(duration = 4000) () =
  let trace = Trace.constant ~name:"c" ~duration_ms:duration ~mbps in
  let buffer =
    Canopy_cc.Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace ~min_rtt_ms:min_rtt
  in
  let cfg =
    {
      (Agent_env.default_config ~trace ~min_rtt_ms:min_rtt ~buffer_pkts:buffer
         ~duration_ms:duration)
      with
      delay_noise;
    }
  in
  Agent_env.create cfg

let test_env_state_shape () =
  let env = make_env () in
  let s = Agent_env.reset env in
  check_int "state dim" (5 * Observation.feature_count) (Array.length s);
  Array.iter (fun x -> check_float "zero initial history" 0. x) s

let test_env_interval_default () =
  let env = make_env ~min_rtt:40 () in
  check_int "interval = max(20, minRTT)" 40 (Agent_env.interval_ms env);
  let env2 = make_env ~min_rtt:10 () in
  check_int "interval floor 20" 20 (Agent_env.interval_ms env2)

let test_cwnd_of_action_eq1 () =
  (* a=0 -> ×1; a=1 -> ×4; a=-1 -> ×1/4; clamped below at 2. *)
  check_float "identity" 40. (Fleet_env.cwnd_of_action ~action:0. ~cwnd_tcp:40.);
  check_float "quadruple" 160. (Fleet_env.cwnd_of_action ~action:1. ~cwnd_tcp:40.);
  check_float "quarter" 10. (Fleet_env.cwnd_of_action ~action:(-1.) ~cwnd_tcp:40.);
  check_float "floor" 2. (Fleet_env.cwnd_of_action ~action:(-1.) ~cwnd_tcp:4.)

let test_env_step_applies_eq1 () =
  let env = make_env () in
  ignore (Agent_env.reset env);
  let suggestion = Agent_env.cwnd_tcp env in
  let res = Agent_env.step env ~action:(-1.) in
  check_float "enforced = suggestion / 4"
    (Fleet_env.cwnd_of_action ~action:(-1.) ~cwnd_tcp:suggestion)
    res.Agent_env.cwnd_enforced;
  check_float "reports suggestion" suggestion res.Agent_env.cwnd_tcp

let test_env_step_updates_history () =
  let env = make_env () in
  ignore (Agent_env.reset env);
  let res = Agent_env.step env ~action:0. in
  (* newest frame occupies the last feature_count slots *)
  let n = Array.length res.Agent_env.state in
  let newest =
    Array.sub res.Agent_env.state (n - Observation.feature_count)
      Observation.feature_count
  in
  Alcotest.(check (array (float 1e-12))) "newest frame at the end"
    (Observation.to_features
       ~thr_scale_mbps:(Agent_env.thr_scale_mbps env)
       res.Agent_env.observation)
    newest

let test_env_prev_cwnd_tracking () =
  let env = make_env () in
  ignore (Agent_env.reset env);
  check_float "initial prev" 10. (Agent_env.prev_cwnd_enforced env);
  let res = Agent_env.step env ~action:0.3 in
  check_float "prev after step" res.Agent_env.cwnd_enforced
    (Agent_env.prev_cwnd_enforced env)

let test_env_finishes () =
  let env = make_env ~duration:400 () in
  ignore (Agent_env.reset env);
  let steps = ref 0 in
  let finished = ref false in
  while not !finished do
    incr steps;
    finished := (Agent_env.step env ~action:0.).Agent_env.finished
  done;
  check_int "10 intervals of 40ms" 10 !steps;
  Alcotest.check_raises "step after finish"
    (Invalid_argument "Fleet_env.step: episode finished") (fun () ->
      ignore (Agent_env.step env ~action:0.))

let test_env_rejects_bad_action () =
  let env = make_env () in
  ignore (Agent_env.reset env);
  Alcotest.check_raises "action range"
    (Invalid_argument "Fleet_env.step: action out of range") (fun () ->
      ignore (Agent_env.step env ~action:1.5))

let test_env_reset_reproducible () =
  let env = make_env () in
  let run () =
    ignore (Agent_env.reset env);
    let r1 = Agent_env.step env ~action:0.5 in
    let r2 = Agent_env.step env ~action:(-0.5) in
    (r1.Agent_env.raw_reward, r2.Agent_env.raw_reward,
     r2.Agent_env.cwnd_enforced)
  in
  check_bool "deterministic across resets" true (run () = run ())

let test_env_neutral_policy_utilizes () =
  (* action = 0 leaves Cubic in charge: utilization should end up high. *)
  let env = make_env ~duration:8000 () in
  ignore (Agent_env.reset env);
  let finished = ref false in
  while not !finished do
    finished := (Agent_env.step env ~action:0.).Agent_env.finished
  done;
  check_bool "cubic-driven utilization" true (Agent_env.utilization env > 0.85)

let test_env_throttling_policy_underutilizes () =
  (* action = -1 persistently quarters the window: utilization collapses
     relative to the neutral policy (the Fig. 2 bad-state mechanism). *)
  let env = make_env ~duration:8000 () in
  ignore (Agent_env.reset env);
  let finished = ref false in
  while not !finished do
    finished := (Agent_env.step env ~action:(-1.)).Agent_env.finished
  done;
  check_bool "throttled" true (Agent_env.utilization env < 0.6)

let test_env_noise_changes_observations_not_link () =
  let run noise =
    let env = make_env ?delay_noise:noise ~duration:2000 () in
    ignore (Agent_env.reset env);
    let delays = ref [] in
    let finished = ref false in
    while not !finished do
      let res = Agent_env.step env ~action:0. in
      delays :=
        res.Agent_env.observation.Observation.avg_qdelay_ms :: !delays;
      finished := res.Agent_env.finished
    done;
    (!delays, Agent_env.utilization env)
  in
  let clean, util_clean = run None in
  let noisy, util_noisy = run (Some (Prng.create 5, 0.05)) in
  (* same actions, same link: identical utilization; perturbed readings *)
  check_float "link unaffected" util_clean util_noisy;
  check_bool "observations perturbed" true (clean <> noisy)

let suite =
  [
    ("delay norm definition", `Quick, test_delay_norm_definition);
    ("delay norm roundtrip", `Quick, test_delay_norm_roundtrip);
    ("features bounded", `Quick, test_features_bounded);
    ("delay feature position", `Quick, test_delay_feature_position);
    ("delay feature monotone", `Quick, test_feature_monotone_in_delay);
    ("loss feature", `Quick, test_loss_feature);
    ("throughput scaling", `Quick, test_thr_scaling);
    ("zero features", `Quick, test_zero_features);
    ("monitor accumulates", `Quick, test_monitor_accumulates);
    ("monitor resets", `Quick, test_monitor_resets_between_intervals);
    ("monitor empty interval", `Quick, test_monitor_empty_interval_qdelay_zero);
    ("monitor srtt from sender", `Quick, test_monitor_srtt_from_sender);
    ("monitor noise bounds", `Quick, test_monitor_noise_bounds);
    ("monitor noise disabled", `Quick, test_monitor_no_noise_factor_one);
    ("monitor rejects bad noise", `Quick, test_monitor_rejects_bad_noise);
    ( "monitor runs = single events",
      `Quick,
      test_monitor_runs_match_single_events );
    ( "fleet episode = per-ACK monitor (bits)",
      `Quick,
      test_fleet_env_matches_per_ack_monitor );
    ("reward tracks throughput", `Quick, test_reward_increases_with_throughput);
    ("reward punishes delay", `Quick, test_reward_decreases_with_delay);
    ("reward forgiveness band", `Quick, test_reward_forgiveness_band);
    ("reward punishes loss", `Quick, test_reward_penalizes_loss);
    ("reward clipped", `Quick, test_reward_clipped);
    ("reward cold start", `Quick, test_reward_zero_before_any_throughput);
    ("env state shape", `Quick, test_env_state_shape);
    ("env interval default", `Quick, test_env_interval_default);
    ("cwnd_of_action (Eq. 1)", `Quick, test_cwnd_of_action_eq1);
    ("env step applies Eq. 1", `Quick, test_env_step_applies_eq1);
    ("env history update", `Quick, test_env_step_updates_history);
    ("env prev_cwnd tracking", `Quick, test_env_prev_cwnd_tracking);
    ("env episode termination", `Quick, test_env_finishes);
    ("env rejects bad action", `Quick, test_env_rejects_bad_action);
    ("env reset reproducible", `Quick, test_env_reset_reproducible);
    ("env neutral policy utilizes", `Quick, test_env_neutral_policy_utilizes);
    ("env throttling underutilizes", `Quick, test_env_throttling_policy_underutilizes);
    ("env noise only perturbs observations", `Quick,
      test_env_noise_changes_observations_not_link);
  ]

(* ------------------------------------------------------------------ *)
(* Property-based invariants *)

let qcheck_orca =
  let open QCheck in
  let gen_obs =
    Gen.(
      let* thr = float_range 0. 500. in
      let* loss = int_range 0 1000 in
      let* qdelay = float_range 0. 2000. in
      let* n = int_range 0 5000 in
      let* m = int_range 1 1000 in
      let* srtt = float_range 1. 2000. in
      let* cwnd = float_range 1. 50_000. in
      let* min_rtt = float_range 2. 400. in
      return (obs ~thr ~loss ~qdelay ~n ~m ~srtt ~cwnd ~min_rtt ()))
  in
  (* Random runs of (gap ms, rtt ms, count, is_loss); an observation is
     taken after every fifth. Monitor plus Cubic's srtt against the
     per-ACK monitor. Counts up to 1 000 and RTTs up to 10 s make the
     RTT sum large, still far below 2^53. *)
  let gen_runs =
    Gen.(
      list_size (1 -- 120)
        (quad (int_range 0 30) (int_range 1 10_000) (int_range 1 1_000) bool))
  in
  [
    Test.make ~name:"monitor + cubic srtt = per-ACK monitor (bits)"
      ~count:300 (make gen_runs)
      (fun runs ->
        let m = Monitor.create ~min_rtt_ms:20 ()
        and c = Canopy_cc.Cubic.create ()
        and want = Per_ack_monitor.create ~min_rtt_ms:20 in
        let now_ms = ref 0 and delivered = ref 0 in
        List.for_all
          (fun (k, (gap, rtt_ms, count, is_loss)) ->
            now_ms := !now_ms + gap;
            let now_ms = !now_ms in
            if is_loss then begin
              Monitor.on_loss m ~now_ms ~count;
              Canopy_cc.Cubic.on_loss c ~now_ms ~count;
              Per_ack_monitor.on_loss want ~count
            end
            else begin
              let first_seq = !delivered in
              delivered := !delivered + count;
              Monitor.on_acks m ~now_ms ~rtt_ms ~first_seq ~count
                ~delivered:!delivered;
              Canopy_cc.Cubic.on_acks c ~now_ms ~rtt_ms ~first_seq ~count
                ~delivered:!delivered;
              Per_ack_monitor.on_acks want ~rtt_ms ~count
            end;
            k mod 5 <> 4
            || same_obs
                 (Monitor.take m ~now_ms ~srtt_ms:(Canopy_cc.Cubic.srtt_ms c)
                    ~cwnd_pkts:10.)
                 (Per_ack_monitor.take want ~now_ms ~cwnd_pkts:10.))
          (List.mapi (fun k run -> (k, run)) runs));
    Test.make ~name:"features always in [0,1]" ~count:300 (make gen_obs)
      (fun o ->
        let f = Observation.to_features ~thr_scale_mbps:100. o in
        Array.for_all (fun x -> x >= 0. && x <= 1.) f);
    Test.make ~name:"reward always within clip bounds" ~count:300
      (make Gen.(list_size (1 -- 20) gen_obs))
      (fun observations ->
        let r = Reward.create () in
        List.for_all
          (fun o ->
            let v = Reward.of_observation r o in
            v >= -1. && v <= 1.)
          observations);
    Test.make ~name:"delay norm monotone in qdelay" ~count:300
      (make Gen.(triple (float_range 0. 500.) (float_range 0. 500.)
                   (float_range 2. 400.)))
      (fun (q1, q2, min_rtt) ->
        let d1 = Observation.delay_norm_of_qdelay ~qdelay_ms:q1
            ~min_rtt_ms:min_rtt in
        let d2 = Observation.delay_norm_of_qdelay ~qdelay_ms:q2
            ~min_rtt_ms:min_rtt in
        (q1 <= q2) = (d1 <= d2) || Float.abs (d1 -. d2) < 1e-12);
  ]

let suite = suite @ List.map QCheck_alcotest.to_alcotest qcheck_orca
