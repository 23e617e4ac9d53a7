(* Tests for canopy_netsim: the Mahimahi-style link emulator, driven as
   one-flow fleets. These pin down the physical invariants the
   congestion controllers rely on: RTT = minRTT + queueing delay,
   droptail loss, delivery bounded by trace capacity, ACK-clocked
   conservation of packets, and the exactness of the queueing-delay
   histogram. *)

module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet
module Trace = Canopy_trace.Trace
module Stats = Canopy_util.Stats

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make_env ?(mbps = 12.) ?(duration = 10_000) ?(min_rtt = 20)
    ?(buffer = 100) ?(cwnd = 10.) () =
  Fleet.create
    [|
      {
        Env.trace = Trace.constant ~name:"c" ~duration_ms:duration ~mbps;
        min_rtt_ms = min_rtt;
        buffer_pkts = buffer;
        mtu_bytes = Env.default_mtu;
        initial_cwnd = cwnd;
        impairments = Env.no_impairments;
      };
    |]

let run ?(handlers = Env.null_handlers) env ~ms = Fleet.run env [| handlers |] ~ms
let stats env = Fleet.stats env ~flow:0
let qdelays env = Fleet.qdelay_array_ms env ~flow:0

let test_bdp_pkts () =
  (* 12 Mbps × 100 ms = 1.2 Mbit = 150 kB = 100 MTU packets *)
  check_int "bdp" 100 (Env.bdp_pkts ~mbps:12. ~min_rtt_ms:100 ~mtu_bytes:1500);
  check_int "at least 1" 1 (Env.bdp_pkts ~mbps:0.01 ~min_rtt_ms:2 ~mtu_bytes:1500)

let test_config_validation () =
  let bad f = Alcotest.check_raises "rejects" (Invalid_argument f) in
  bad "Fleet.create: min_rtt_ms" (fun () ->
      ignore (Fleet.create
        [| { Env.trace = Trace.constant ~name:"c" ~duration_ms:10 ~mbps:1.;
             min_rtt_ms = 1; buffer_pkts = 1; mtu_bytes = 1500;
             initial_cwnd = 2.; impairments = Env.no_impairments } |]));
  bad "Fleet.create: buffer_pkts" (fun () ->
      ignore (Fleet.create
        [| { Env.trace = Trace.constant ~name:"c" ~duration_ms:10 ~mbps:1.;
             min_rtt_ms = 10; buffer_pkts = 0; mtu_bytes = 1500;
             initial_cwnd = 2.; impairments = Env.no_impairments } |]))

let test_rtt_equals_min_rtt_when_uncongested () =
  (* cwnd far below BDP: queue stays empty, every RTT is exactly minRTT. *)
  let env = make_env ~mbps:48. ~min_rtt:30 ~cwnd:4. () in
  run env ~ms:2000;
  let qd = qdelays env in
  check_bool "has acks" true (Array.length qd > 0);
  Array.iter (fun q -> check_float "rtt = minRTT" 0. q) qd;
  check_float "no queueing delay" 0. (Fleet.avg_qdelay_ms env ~flow:0)

let test_first_ack_timing () =
  (* With an empty queue the first packet's ACK arrives after exactly one
     minRTT (plus the 1ms send tick). *)
  let env = make_env ~min_rtt:25 ~cwnd:2. () in
  let first_ack = ref (-1) in
  let handlers =
    {
      Env.null_handlers with
      on_acks =
        (fun ~now_ms ~rtt_ms:_ ~first_seq:_ ~count:_ ~delivered:_ ->
          if !first_ack < 0 then first_ack := now_ms);
    }
  in
  run ~handlers env ~ms:100;
  check_int "first ack time" 26 !first_ack

let test_queue_builds_when_overdriven () =
  (* cwnd far above BDP: queue fills, RTT inflates by queueing delay. *)
  let env = make_env ~mbps:12. ~min_rtt:20 ~buffer:50 ~cwnd:60. () in
  run env ~ms:3000;
  check_bool "queueing delay appears" true (Fleet.avg_qdelay_ms env ~flow:0 > 5.)

let test_droptail_loss () =
  (* cwnd exceeding BDP + buffer must overflow the droptail queue. *)
  let env = make_env ~mbps:12. ~min_rtt:20 ~buffer:10 ~cwnd:100. () in
  let losses = ref 0 in
  let handlers =
    {
      Env.null_handlers with
      on_loss = (fun ~now_ms:_ ~count -> losses := !losses + count);
    }
  in
  run ~handlers env ~ms:2000;
  check_bool "drops observed" true ((stats env).Env.dropped > 0);
  (* drain in-flight loss notifications before comparing the counters *)
  Fleet.set_cwnd env ~flow:0 1.;
  run ~handlers env ~ms:100;
  check_int "handler saw every drop" (stats env).Env.dropped !losses;
  check_bool "loss rate positive" true (Fleet.loss_rate env ~flow:0 > 0.)

let test_no_loss_when_window_fits () =
  let env = make_env ~mbps:12. ~min_rtt:20 ~buffer:100 ~cwnd:10. () in
  run env ~ms:5000;
  check_int "no drops" 0 (stats env).Env.dropped;
  check_float "zero loss rate" 0. (Fleet.loss_rate env ~flow:0)

let test_delivery_bounded_by_capacity () =
  let env = make_env ~mbps:12. ~min_rtt:20 ~cwnd:1000. ~buffer:10_000 () in
  run env ~ms:5000;
  let st = stats env in
  check_bool "delivered <= capacity" true
    (float_of_int st.Env.delivered <= st.Env.capacity_pkts +. 1.);
  check_bool "utilization <= 1" true (Fleet.utilization env ~flow:0 <= 1.)

let test_full_utilization_with_big_window () =
  (* A window comfortably above BDP (but inside the buffer) should keep
     the bottleneck busy: utilization near 1. *)
  let env = make_env ~mbps:12. ~min_rtt:20 ~buffer:100 ~cwnd:60. () in
  run env ~ms:10_000;
  check_bool "near-full utilization" true (Fleet.utilization env ~flow:0 > 0.95)

let test_packet_conservation () =
  (* Every sent packet is eventually delivered or dropped (after the
     pipeline drains). *)
  let env = make_env ~mbps:12. ~min_rtt:20 ~buffer:20 ~cwnd:50. () in
  run env ~ms:3000;
  (* stop sending: shrink window to zero-ish and drain *)
  Fleet.set_cwnd env ~flow:0 1.;
  run env ~ms:2000;
  let st = stats env in
  let inflight = Fleet.inflight env ~flow:0 in
  check_bool "conservation" true
    (st.Env.delivered + st.Env.dropped + inflight >= st.Env.sent);
  check_bool "inflight small after drain" true (inflight <= 2)

let test_set_cwnd_clamps () =
  let env = make_env () in
  Fleet.set_cwnd env ~flow:0 0.1;
  check_float "clamped to 1" 1. (Fleet.cwnd env ~flow:0)

(* A NaN would pass the clamp and an infinity would reach [int_of_float]
   in the sender: both raise, and the window keeps its last value. *)
let test_set_cwnd_rejects_non_finite () =
  let env = make_env () in
  Fleet.set_cwnd env ~flow:0 25.;
  List.iter
    (fun w ->
      Alcotest.check_raises (Printf.sprintf "%h" w)
        (Invalid_argument "Fleet.set_cwnd: non-finite window") (fun () ->
          Fleet.set_cwnd env ~flow:0 w);
      check_float "window kept" 25. (Fleet.cwnd env ~flow:0))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* [nan < 1.] is false, so the old bound let a NaN initial window in. *)
  List.iter
    (fun cwnd ->
      Alcotest.check_raises (Printf.sprintf "initial %h" cwnd)
        (Invalid_argument "Fleet.create: initial_cwnd") (fun () ->
          ignore (make_env ~cwnd ())))
    [ Float.nan; Float.infinity; 0.5 ]

let test_acks_monotone_time () =
  let env = make_env ~cwnd:30. () in
  let last = ref 0 in
  let handlers =
    {
      Env.null_handlers with
      on_acks =
        (fun ~now_ms ~rtt_ms:_ ~first_seq:_ ~count:_ ~delivered:_ ->
          check_bool "non-decreasing ack time" true (now_ms >= !last);
          last := now_ms);
    }
  in
  run ~handlers env ~ms:2000

let test_ack_seq_delivered_consistency () =
  let env = make_env ~cwnd:5. () in
  let acks = ref 0 in
  let handlers =
    {
      Env.null_handlers with
      on_acks =
        (fun ~now_ms:_ ~rtt_ms:_ ~first_seq:_ ~count ~delivered ->
          check_bool "non-empty run" true (count >= 1);
          for k = 0 to count - 1 do
            incr acks;
            check_int "delivered counts acks" !acks (delivered - count + 1 + k)
          done);
    }
  in
  run ~handlers env ~ms:1000

(* Feedback comes in runs: on a loss-free link each run's seqs follow
   the previous run's last, [delivered] counts the whole run, and a link
   that moves 8 packets a millisecond reports several ACKs per call. *)
let test_ack_runs_contiguous () =
  let env = make_env ~mbps:96. ~min_rtt:20 ~buffer:300 ~cwnd:200. () in
  let next = ref 0 and calls = ref 0 in
  let handlers =
    {
      Env.null_handlers with
      on_acks =
        (fun ~now_ms:_ ~rtt_ms:_ ~first_seq ~count ~delivered ->
          incr calls;
          check_int "run starts at the next seq" !next first_seq;
          next := first_seq + count;
          check_int "delivered includes the run" !next delivered);
    }
  in
  run ~handlers env ~ms:2000;
  check_int "no drops" 0 (stats env).Env.dropped;
  check_int "every ack reported" (stats env).Env.delivered !next;
  check_bool "runs coalesce" true (!calls * 4 < !next)

let test_capacity_wasted_when_idle () =
  (* With a tiny window the trace offers more opportunities than used;
     utilization must reflect the waste rather than clamp to 1. *)
  let env = make_env ~mbps:96. ~min_rtt:40 ~cwnd:2. () in
  run env ~ms:5000;
  check_bool "low utilization" true (Fleet.utilization env ~flow:0 < 0.2)

(* A 500 ms zero-capacity segment between two 12 Mbps ones. *)
let blackout_cfg () =
  {
    Env.trace =
      Trace.of_segments ~name:"blackout"
        [ (1000, 12.); (500, 0.); (1000, 12.) ];
    min_rtt_ms = 20;
    buffer_pkts = 50;
    mtu_bytes = Env.default_mtu;
    initial_cwnd = 10.;
    impairments = Env.no_impairments;
  }

let test_zero_capacity_interval () =
  (* Failure injection: a trace segment with zero capacity stalls the
     link; packets queue (or drop) and delivery resumes afterwards. *)
  let env = Fleet.create [| blackout_cfg () |] in
  run env ~ms:2500;
  check_bool "delivered something" true ((stats env).Env.delivered > 0);
  (* RTT spikes during blackout must exceed minRTT + 100ms *)
  check_bool "blackout inflates rtt" true
    (Array.exists (fun q -> q > 100.) (qdelays env))

let test_chain_handlers () =
  let a = ref 0 and b = ref 0 in
  let mk r =
    {
      Env.null_handlers with
      on_acks =
        (fun ~now_ms:_ ~rtt_ms:_ ~first_seq:_ ~count ~delivered:_ ->
          r := !r + count);
    }
  in
  let env = make_env ~cwnd:5. () in
  run ~handlers:(Env.chain (mk a) (mk b)) env ~ms:500;
  check_bool "both invoked" true (!a > 0);
  check_int "equally" !a !b

let test_deterministic_replay () =
  let replay () =
    let env = make_env ~mbps:24. ~cwnd:40. ~buffer:30 () in
    run env ~ms:4000;
    let st = stats env in
    (st.Env.sent, st.Env.delivered, st.Env.dropped)
  in
  check_bool "identical runs" true (replay () = replay ())

(* The link truncates its window and credit where it floored them: the
   two agree on [0, inf] and on NaN, which is every value the window
   (>= 1) and the credit (>= 0) can hold. Values that separate them
   elsewhere: ±0, subnormals, just below and above whole numbers, 2^52
   and up (every float there is whole), past the int range, ±∞ and NaN
   of both signs. *)
let gen_nonneg =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          oneofl
            [
              0.; -0.; 4.9e-324; 1e-310; Float.min_float; Float.pred 1.; 1.;
              Float.succ 1.; 2.5; Float.pred 4096.; 0x1p52; 0x1p52 +. 1.;
              0x1p53; 0x1p62; 0x1p63; 1e300; Float.max_float;
              Float.infinity; Float.nan; -.Float.nan;
            ] );
        (3, float_range 0. 10_000.);
        (1, map Float.abs float);
      ])

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Truncation is not floor below 0: on (-1, 0) it gives 0 where floor
   gives -1. The window and credit never go there. *)
let test_truncation_precondition () =
  List.iter
    (fun x ->
      check_int (Printf.sprintf "%h truncates" x) 0 (int_of_float x);
      check_int (Printf.sprintf "%h floors" x) (-1)
        (int_of_float (Float.floor x)))
    [ -0.5; Float.pred 0.; Float.succ (-1.) ]

let suite =
  [
    ("bdp computation", `Quick, test_bdp_pkts);
    ("config validation", `Quick, test_config_validation);
    ("uncongested rtt = minRTT", `Quick, test_rtt_equals_min_rtt_when_uncongested);
    ("first ack timing", `Quick, test_first_ack_timing);
    ("queue builds when overdriven", `Quick, test_queue_builds_when_overdriven);
    ("droptail loss", `Quick, test_droptail_loss);
    ("no loss when window fits", `Quick, test_no_loss_when_window_fits);
    ("delivery bounded by capacity", `Quick, test_delivery_bounded_by_capacity);
    ("full utilization with big window", `Quick, test_full_utilization_with_big_window);
    ("packet conservation", `Quick, test_packet_conservation);
    ("set_cwnd clamps", `Quick, test_set_cwnd_clamps);
    ("truncation is floor only from 0", `Quick, test_truncation_precondition);
    ("non-finite windows rejected", `Quick, test_set_cwnd_rejects_non_finite);
    ("ack times monotone", `Quick, test_acks_monotone_time);
    ("ack delivered counter", `Quick, test_ack_seq_delivered_consistency);
    ("ack runs contiguous", `Quick, test_ack_runs_contiguous);
    ("capacity wasted when idle", `Quick, test_capacity_wasted_when_idle);
    ("zero-capacity blackout", `Quick, test_zero_capacity_interval);
    ("handler chaining", `Quick, test_chain_handlers);
    ("deterministic replay", `Quick, test_deterministic_replay);
  ]

let impaired_cfg ?(random_loss = 0.) ?(ack_jitter_ms = 0) ?(reorder_prob = 0.)
    ?(reorder_ms = 0) () =
  {
    Env.trace = Trace.constant ~name:"c" ~duration_ms:10_000 ~mbps:24.;
    min_rtt_ms = 20;
    buffer_pkts = 200;
    mtu_bytes = Env.default_mtu;
    initial_cwnd = 20.;
    impairments =
      { Env.random_loss; ack_jitter_ms; reorder_prob; reorder_ms; seed = 42 };
  }

let impaired ?random_loss ?ack_jitter_ms ?reorder_prob ?reorder_ms () =
  Fleet.create
    [| impaired_cfg ?random_loss ?ack_jitter_ms ?reorder_prob ?reorder_ms () |]

let test_random_loss_injected () =
  (* A window that fits comfortably would see zero congestive drops; with
     random loss enabled, drops must appear at roughly the set rate. *)
  let env = impaired ~random_loss:0.02 () in
  run env ~ms:8000;
  let st = stats env in
  check_bool "drops appear without congestion" true (st.Env.dropped > 0);
  let rate = float_of_int st.Env.dropped /. float_of_int st.Env.sent in
  check_bool
    (Printf.sprintf "rate near 2%% (got %.3f)" rate)
    true
    (rate > 0.005 && rate < 0.05)

let test_no_impairments_no_loss () =
  let env = impaired () in
  run env ~ms:8000;
  check_int "clean link" 0 (stats env).Env.dropped

let test_ack_jitter_spreads_rtt () =
  let env = impaired ~ack_jitter_ms:15 () in
  run env ~ms:5000;
  (* ascending RTT - minRTT samples: the floor and the ceiling *)
  let qd = qdelays env in
  let mn = qd.(0) and mx = qd.(Array.length qd - 1) in
  check_bool "floor at minRTT" true (mn >= 0.);
  check_bool "jitter visible" true (mx -. mn >= 5.);
  (* bound: jitter + the initial window burst's queueing (the 20-packet
     initial window drains at 2 pkts/ms -> up to 10 ms) *)
  check_bool "jitter bounded" true (mx <= 15. +. 11.)

let test_jitter_keeps_conservation () =
  let env = impaired ~ack_jitter_ms:25 ~random_loss:0.01 () in
  run env ~ms:4000;
  Fleet.set_cwnd env ~flow:0 1.;
  run env ~ms:1000;
  let st = stats env in
  check_bool "conservation with impairments" true
    (st.Env.delivered + st.Env.dropped + Fleet.inflight env ~flow:0
    >= st.Env.sent)

let test_impairment_validation () =
  let mk impairments =
    ignore
      (Fleet.create
         [|
           {
             Env.trace = Trace.constant ~name:"c" ~duration_ms:10 ~mbps:1.;
             min_rtt_ms = 10;
             buffer_pkts = 1;
             mtu_bytes = 1500;
             initial_cwnd = 2.;
             impairments;
           };
         |])
  in
  Alcotest.check_raises "loss prob" (Invalid_argument "Fleet.create: random_loss")
    (fun () -> mk { Env.no_impairments with random_loss = 1.5 });
  Alcotest.check_raises "reorder prob"
    (Invalid_argument "Fleet.create: reorder_prob") (fun () ->
      mk { Env.no_impairments with reorder_prob = -0.1 });
  Alcotest.check_raises "reorder ms" (Invalid_argument "Fleet.create: reorder_ms")
    (fun () -> mk { Env.no_impairments with reorder_prob = 0.1; reorder_ms = -1 })

(* Both range comparisons are false for NaN, so a NaN probability used
   to pass validation and then never fire. *)
let test_impairment_nan_rejected () =
  let mk impairments =
    ignore (Fleet.create [| { (impaired_cfg ()) with impairments } |])
  in
  Alcotest.check_raises "NaN loss prob"
    (Invalid_argument "Fleet.create: random_loss") (fun () ->
      mk { Env.no_impairments with random_loss = Float.nan });
  Alcotest.check_raises "NaN reorder prob"
    (Invalid_argument "Fleet.create: reorder_prob") (fun () ->
      mk { Env.no_impairments with reorder_prob = Float.nan; reorder_ms = 5 })

let test_reorder_spreads_rtt () =
  (* Reordering holds some ACKs back by reorder_ms: the RTT distribution
     acquires a visible tail while the floor stays at minRTT. *)
  let env = impaired ~reorder_prob:0.3 ~reorder_ms:12 () in
  run env ~ms:5000;
  let qd = qdelays env in
  let mn = qd.(0) and mx = qd.(Array.length qd - 1) in
  check_bool "floor at minRTT" true (mn >= 0.);
  check_bool "reorder tail visible" true (mx -. mn >= 10.);
  check_bool "no drops from reordering" true ((stats env).Env.dropped = 0)

let test_reorder_out_of_order_acks () =
  (* Held-back feedback means later sequence numbers overtake earlier
     ones: the ACKed seq stream must not be monotone. *)
  let env = impaired ~reorder_prob:0.3 ~reorder_ms:12 () in
  let out_of_order = ref false in
  let last_seq = ref (-1) in
  let handlers =
    {
      Env.null_handlers with
      on_acks =
        (fun ~now_ms:_ ~rtt_ms:_ ~first_seq ~count ~delivered:_ ->
          if first_seq < !last_seq then out_of_order := true;
          last_seq := max !last_seq (first_seq + count - 1));
    }
  in
  run ~handlers env ~ms:5000;
  check_bool "acks overtake" true !out_of_order

let test_reorder_zero_prob_noop () =
  (* reorder_prob = 0 must leave the PRNG stream untouched: the run is
     bit-identical to one with no reorder fields set at all. *)
  let outcome env =
    run env ~ms:4000;
    let st = stats env in
    (st.Env.sent, st.Env.delivered, st.Env.dropped, qdelays env)
  in
  let a = outcome (impaired ~random_loss:0.02 ~ack_jitter_ms:3 ()) in
  let b =
    outcome
      (impaired ~random_loss:0.02 ~ack_jitter_ms:3 ~reorder_prob:0.
         ~reorder_ms:50 ())
  in
  check_bool "zero-prob reordering is a no-op" true (a = b)

(* The histogram is the per-ack sample multiset: on a clean link, a
   jittered and reordered one, and the blackout trace (delays past
   500 ms, so the bins grow many times), [qdelay_array_ms] holds one
   ascending entry per delivered packet, and its mean and p95 equal, to
   the bit, those of the RTT - minRTT samples an [on_acks] handler sees
   in arrival order, each run expanded into one sample per packet. *)
let test_qdelay_histogram_exact () =
  let check_link name (cfg : Env.config) =
    let env = Fleet.create [| cfg |] in
    let samples = ref [] in
    let handlers =
      {
        Env.null_handlers with
        on_acks =
          (fun ~now_ms:_ ~rtt_ms ~first_seq:_ ~count ~delivered:_ ->
            for _ = 1 to count do
              samples := float_of_int (rtt_ms - cfg.min_rtt_ms) :: !samples
            done);
      }
    in
    run ~handlers env ~ms:2500;
    let seen = Array.of_list (List.rev !samples) in
    let qd = qdelays env in
    let bits x = Int64.bits_of_float x in
    let tag what = name ^ ": " ^ what in
    check_int (tag "one entry per delivered packet") (stats env).Env.delivered
      (Array.length qd);
    check_bool (tag "ascending") true
      (Array.for_all Fun.id
         (Array.init (max 0 (Array.length qd - 1)) (fun k -> qd.(k) <= qd.(k + 1))));
    check_bool (tag "mean bits") true (bits (Stats.mean qd) = bits (Stats.mean seen));
    check_bool (tag "avg_qdelay_ms bits") true
      (bits (Fleet.avg_qdelay_ms env ~flow:0) = bits (Stats.mean seen));
    check_bool (tag "p95 bits") true
      (bits (Stats.percentile qd 95.) = bits (Stats.percentile seen 95.));
    check_bool (tag "histogram p95 bits") true
      (bits (Fleet.qdelay_percentile_ms env ~flow:0 95.)
      = bits (Stats.percentile seen 95.));
    check_bool (tag "avg_rtt_ms bits") true
      (bits (Fleet.avg_rtt_ms env ~flow:0)
      = bits
          (Stats.mean
             (Array.map (fun q -> q +. float_of_int cfg.min_rtt_ms) seen)));
    qd
  in
  ignore (check_link "clean" (impaired_cfg ()));
  ignore
    (check_link "jitter+reorder"
       (impaired_cfg ~random_loss:0.01 ~ack_jitter_ms:7 ~reorder_prob:0.2
          ~reorder_ms:9 ()));
  let qd =
    check_link "blackout"
      { (blackout_cfg ()) with buffer_pkts = 5_000; initial_cwnd = 400. }
  in
  check_bool "blackout delays pass 500 ms" true (qd.(Array.length qd - 1) > 500.)

let impairment_suite =
  [
    ("random loss injected", `Quick, test_random_loss_injected);
    ("no impairments no loss", `Quick, test_no_impairments_no_loss);
    ("ack jitter spreads rtt", `Quick, test_ack_jitter_spreads_rtt);
    ("jitter keeps conservation", `Quick, test_jitter_keeps_conservation);
    ("impairment validation", `Quick, test_impairment_validation);
    ("impairment NaN rejected", `Quick, test_impairment_nan_rejected);
    ("reorder spreads rtt", `Quick, test_reorder_spreads_rtt);
    ("reorder out-of-order acks", `Quick, test_reorder_out_of_order_acks);
    ("reorder zero prob noop", `Quick, test_reorder_zero_prob_noop);
    ("qdelay histogram exact", `Quick, test_qdelay_histogram_exact);
  ]

let suite = suite @ impairment_suite

(* ------------------------------------------------------------------ *)
(* Property-based invariants *)

let qcheck_netsim =
  let open QCheck in
  [
    Test.make ~name:"int_of_float = floor on [0, inf] and NaN" ~count:1_000
      (make ~print:(Printf.sprintf "%h") gen_nonneg)
      (fun x -> int_of_float x = int_of_float (Float.floor x));
    (* [set_cwnd]'s [if w > 1. then w else 1.] on the finite windows it
       accepts, against the stdlib's [Float.max 1. w]. *)
    Test.make ~name:"set_cwnd floor = Float.max 1. (bits)" ~count:1_000
      (make ~print:(Printf.sprintf "%h")
         Gen.(
           frequency
             [
               ( 2,
                 oneofl
                   [
                     1.; -1.; Float.pred 1.; Float.succ 1.; -0.; 4.9e-324;
                     -4.9e-324; Float.max_float; -.Float.max_float;
                   ] );
               (2, float_range (-10.) 10.);
               (1, float);
             ]))
      (fun w ->
        (not (Float.is_finite w))
        ||
        let env = make_env () in
        Fleet.set_cwnd env ~flow:0 w;
        bits_equal (Fleet.cwnd env ~flow:0) (Float.max 1. w));
    Test.make ~name:"delivery never exceeds offered capacity" ~count:50
      (make
         Gen.(
           let* mbps = float_range 1. 200. in
           let* cwnd = float_range 2. 2000. in
           let* buffer = int_range 5 500 in
           let* min_rtt = int_range 4 200 in
           return (mbps, cwnd, buffer, min_rtt)))
      (fun (mbps, cwnd, buffer, min_rtt) ->
        let env = make_env ~mbps ~min_rtt ~buffer ~cwnd ~duration:4000 () in
        run env ~ms:3000;
        let st = stats env in
        float_of_int st.Env.delivered <= st.Env.capacity_pkts +. 1.
        && Fleet.utilization env ~flow:0 <= 1.
        && Fleet.loss_rate env ~flow:0 >= 0.
        && Fleet.loss_rate env ~flow:0 <= 1.);
    Test.make ~name:"all RTT samples at least minRTT" ~count:50
      (make
         Gen.(
           let* mbps = float_range 1. 100. in
           let* cwnd = float_range 2. 500. in
           let* min_rtt = int_range 4 100 in
           return (mbps, cwnd, min_rtt)))
      (fun (mbps, cwnd, min_rtt) ->
        (* the histogram refuses an RTT below minRTT, so a completed run
           with one sample per ack is the property *)
        let env = make_env ~mbps ~min_rtt ~cwnd ~duration:3000 () in
        run env ~ms:2000;
        let qd = qdelays env in
        Array.length qd = (stats env).Env.delivered
        && Array.for_all (fun q -> q >= 0.) qd);
    (* The delay statistics read off the histogram (the mean as its
       integer sums divided once, the percentiles by cumulative bin
       counts) have the bits of [Stats] over the per-packet array, from
       runs too short for any ack or long enough for a standing queue;
       before any ack the percentile raises as [Stats.percentile] does. *)
    Test.make ~name:"histogram delay statistics = Stats of qdelay_array_ms (bits)"
      ~count:80
      (make
         ~print:(fun (mbps, cwnd, buffer, min_rtt, ms, p) ->
           Printf.sprintf "mbps %g cwnd %g buffer %d min_rtt %d ms %d p %g" mbps
             cwnd buffer min_rtt ms p)
         Gen.(
           let* mbps = float_range 1. 100. in
           let* cwnd = float_range 2. 800. in
           let* buffer = int_range 2 400 in
           let* min_rtt = int_range 4 100 in
           let* ms = oneof [ int_range 1 120; int_range 120 3000 ] in
           let* p = oneof [ oneofl [ 0.; 95.; 100. ]; float_range 0. 100. ] in
           return (mbps, cwnd, buffer, min_rtt, ms, p)))
      (fun (mbps, cwnd, buffer, min_rtt, ms, p) ->
        let env = make_env ~mbps ~min_rtt ~buffer ~cwnd ~duration:4000 () in
        run env ~ms;
        let qd = qdelays env in
        let bits x = Int64.bits_of_float x in
        let rtts = Array.map (fun q -> q +. float_of_int min_rtt) qd in
        bits (Fleet.avg_qdelay_ms env ~flow:0) = bits (Stats.mean qd)
        && bits (Fleet.avg_rtt_ms env ~flow:0) = bits (Stats.mean rtts)
        &&
        if Array.length qd = 0 then
          match Fleet.qdelay_percentile_ms env ~flow:0 p with
          | _ -> false
          | exception Invalid_argument _ -> true
        else
          bits (Fleet.qdelay_percentile_ms env ~flow:0 p)
          = bits (Stats.percentile qd p));
  ]

let suite = suite @ List.map QCheck_alcotest.to_alcotest qcheck_netsim
