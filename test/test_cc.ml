(* Tests for canopy_cc: Cubic, Reno, Vegas, BBR behaviour and the
   evaluation runner. Each algorithm is checked both in isolation (unit
   reactions to ACK/loss feedback) and closed-loop on the simulator
   (literature-shaped outcomes: Cubic fills buffers, Vegas keeps delay
   low, BBR sits in between). *)

open Canopy_cc
module Env = Canopy_netsim.Env
module Trace = Canopy_trace.Trace

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

(* One ACK, as a run of one, through a controller's [on_acks]. *)
let ack ?(now = 100) ?(rtt = 20) ?(seq = 0) ?(delivered = 1) on_acks =
  on_acks ~now_ms:now ~rtt_ms:rtt ~first_seq:seq ~count:1 ~delivered

(* ------------------------------------------------------------------ *)
(* Cubic *)

(* A fresh Cubic (window 10, slow start) grown to window [w] by one run
   of [w - 10] ACKs: one packet per ACK. *)
let cubic_at ?(now = 100) ?(rtt = 20) w =
  let c = Cubic.create () in
  Cubic.on_acks c ~now_ms:now ~rtt_ms:rtt ~first_seq:0 ~count:(w - 10)
    ~delivered:(w - 10);
  c

let test_cubic_slow_start_growth () =
  let c = Cubic.create () in
  check_bool "starts in slow start" true (Cubic.in_slow_start c);
  for i = 1 to 5 do
    ack ~now:(100 + i) (Cubic.on_acks c)
  done;
  check_float "one packet per ack" 15. (Cubic.cwnd c)

(* The smoothed RTT the Orca monitor reads: seeded by the first ACK's
   RTT, then the 7/8-1/8 EWMA per ACK. *)
let test_cubic_srtt_ewma () =
  let c = Cubic.create () in
  check_float "none before an ack" 0. (Cubic.srtt_ms c);
  ack ~now:1 ~rtt:40 (Cubic.on_acks c);
  check_float "first rtt seeds srtt" 40. (Cubic.srtt_ms c);
  ack ~now:2 ~rtt:80 (Cubic.on_acks c);
  check_float "ewma" ((0.875 *. 40.) +. (0.125 *. 80.)) (Cubic.srtt_ms c)

let test_cubic_loss_reaction () =
  let c = cubic_at 100 in
  ack (Cubic.on_acks c);
  Cubic.on_loss c ~now_ms:200 ~count:1;
  check_bool "multiplicative decrease" true (Cubic.cwnd c < 101.);
  check_float "w_max anchored" 101. (Cubic.w_max c);
  check_bool "left slow start" false (Cubic.in_slow_start c)

let test_cubic_loss_guard () =
  (* A burst of drops within one RTT counts as a single event. *)
  let c = cubic_at ~rtt:50 100 in
  ack ~rtt:50 (Cubic.on_acks c);
  Cubic.on_loss c ~now_ms:200 ~count:1;
  let after_first = Cubic.cwnd c in
  Cubic.on_loss c ~now_ms:205 ~count:1;
  check_float "second drop ignored" after_first (Cubic.cwnd c);
  Cubic.on_loss c ~now_ms:300 ~count:1;
  check_bool "later drop applies" true (Cubic.cwnd c < after_first)

let test_cubic_concave_recovery () =
  (* After a loss, congestion avoidance should climb back toward w_max. *)
  let c = cubic_at 100 in
  ack ~now:100 ~rtt:20 (Cubic.on_acks c);
  Cubic.on_loss c ~now_ms:150 ~count:1;
  let floor = Cubic.cwnd c in
  for i = 1 to 2000 do
    ack ~now:(150 + (i * 5)) ~rtt:20 (Cubic.on_acks c)
  done;
  check_bool "recovered above the floor" true (Cubic.cwnd c > floor +. 5.);
  check_bool "approaches w_max region" true (Cubic.cwnd c > 0.8 *. Cubic.w_max c)

let test_cubic_force_cwnd () =
  let c = Cubic.create () in
  Cubic.force_cwnd c 500.;
  check_float "forced" 500. (Cubic.cwnd c);
  Cubic.force_cwnd c 0.5;
  check_float "clamped below" 2. (Cubic.cwnd c)

let test_cubic_controller_wrapper () =
  let c = Cubic.create () in
  let ctrl = Cubic.to_controller c in
  Alcotest.(check string) "name" "cubic" ctrl.Controller.name;
  ack ctrl.Controller.on_acks;
  check_float "wrapper forwards acks" 11. (ctrl.Controller.cwnd ())

(* ------------------------------------------------------------------ *)
(* Reno *)

let test_reno_slow_start_then_ca () =
  let r = Reno.create () in
  check_bool "slow start" true (Reno.in_slow_start r);
  Reno.on_loss r ~now_ms:100 ~count:1;
  check_bool "ca after loss" false (Reno.in_slow_start r);
  check_float "halved" 5. (Reno.cwnd r);
  (* additive increase: +1/cwnd per ack *)
  ack ~now:200 (Reno.on_acks r);
  check_float "ai" 5.2 (Reno.cwnd r)

(* From 10 packets, the third loss would halve 2.5 below the floor. *)
let test_reno_floor () =
  let r = Reno.create () in
  List.iter
    (fun now_ms -> Reno.on_loss r ~now_ms ~count:1)
    [ 100; 200; 300; 500 ];
  check_bool "never below 2" true (Reno.cwnd r >= 2.);
  check_float "at the floor" 2. (Reno.cwnd r)

(* ------------------------------------------------------------------ *)
(* Vegas *)

let test_vegas_tracks_base_rtt () =
  let v = Vegas.create () in
  ack ~now:50 ~rtt:40 (Vegas.on_acks v);
  ack ~now:100 ~rtt:25 (Vegas.on_acks v);
  check_float "base rtt is min" 25. (Vegas.base_rtt_ms v)

let test_vegas_backs_off_on_delay () =
  (* Excess queueing (diff > beta) must shrink the window once per RTT. *)
  let v = Vegas.create () in
  ack ~now:10 ~rtt:20 (Vegas.on_acks v);
  let before = Vegas.cwnd v in
  (* inflate RTT: diff = cwnd*(1 - 20/60) = large *)
  for i = 1 to 100 do
    ack ~now:(10 + (i * 2)) ~rtt:60 (Vegas.on_acks v)
  done;
  check_bool "window reduced" true (Vegas.cwnd v < before)

let test_vegas_grows_when_uncongested () =
  let v = Vegas.create () in
  let before = Vegas.cwnd v in
  for i = 1 to 100 do
    ack ~now:(i * 2) ~rtt:20 (Vegas.on_acks v)
  done;
  check_bool "window grew" true (Vegas.cwnd v > before)

let test_vegas_loss_reaction () =
  let v = Vegas.create () in
  ack ~rtt:20 (Vegas.on_acks v);
  let before = Vegas.cwnd v in
  Vegas.on_loss v ~now_ms:100 ~count:1;
  check_float "3/4 backoff" (0.75 *. before) (Vegas.cwnd v)

(* Out of slow start (a loss at 10.5 packets leaves 7.875), one RTT's
   queue estimate [diff = cwnd (1 - baseRTT / avgRTT)] adds a packet
   below [alpha = 2], holds the window up to [beta = 4] and takes a
   packet off above it. Second RTTs of 32, 34, 60 and 62 ms against the
   20 ms base put diff at 1.82, 2.04, 3.94 and 4.03 packets. *)
let test_vegas_alpha_beta_band () =
  let after_epoch rtt =
    let v = Vegas.create () in
    ack ~now:0 ~rtt:20 (Vegas.on_acks v);
    Vegas.on_loss v ~now_ms:1 ~count:1;
    ack ~now:20 ~rtt (Vegas.on_acks v);
    Vegas.cwnd v
  in
  check_float "below alpha: one more" 8.875 (after_epoch 32);
  check_float "inside the band: held" 7.875 (after_epoch 34);
  check_float "up to beta: held" 7.875 (after_epoch 60);
  check_float "above beta: one less" 6.875 (after_epoch 62)

(* ------------------------------------------------------------------ *)
(* BBR *)

let test_bbr_starts_in_startup () =
  Alcotest.(check string) "mode" "startup" (Bbr.mode (Bbr.create ()))

let test_bbr_estimates () =
  let b = Bbr.create () in
  check_float "no bw yet" 0. (Bbr.btl_bw_pkts_per_ms b);
  (* feed a steady 2 pkts/ms delivery at 20ms RTT *)
  for i = 1 to 100 do
    ack ~now:(i * 10) ~rtt:20 ~delivered:(i * 20) (Bbr.on_acks b)
  done;
  check_float "rt_prop" 20. (Bbr.rt_prop_ms b);
  check_bool "bw near 2 pkt/ms" true
    (Float.abs (Bbr.btl_bw_pkts_per_ms b -. 2.) < 0.5)

(* Rate samples 10, 5 and 7 pkts/ms, all inside the bandwidth window:
   the newest sample dominates the 5 but not the 10, so the windowed max
   stays 10. *)
let test_bbr_max_filter_keeps_older_max () =
  let b = Bbr.create () in
  List.iter
    (fun (now, delivered) -> ack ~now ~rtt:10 ~delivered (Bbr.on_acks b))
    [ (10, 100); (20, 150); (30, 220) ];
  check_float "windowed max" 10. (Bbr.btl_bw_pkts_per_ms b)

let test_bbr_leaves_startup_on_plateau () =
  let b = Bbr.create () in
  for i = 1 to 300 do
    ack ~now:(i * 10) ~rtt:20 ~delivered:(i * 20) (Bbr.on_acks b)
  done;
  check_bool "left startup" true (Bbr.mode b <> "startup")

let test_bbr_cwnd_tracks_bdp () =
  let b = Bbr.create () in
  for i = 1 to 400 do
    ack ~now:(i * 10) ~rtt:20 ~delivered:(i * 20) (Bbr.on_acks b)
  done;
  (* bdp = 2 pkt/ms * 20 ms = 40 pkts; probe gains within [0.75, 1.25] *)
  check_bool "cwnd near bdp" true
    (Bbr.cwnd b >= 25. && Bbr.cwnd b <= 60.)

let test_bbr_loss_tolerant () =
  let b = Bbr.create () in
  let before = Bbr.cwnd b in
  Bbr.on_loss b ~now_ms:10 ~count:1;
  check_bool "small reaction only" true (Bbr.cwnd b >= 0.9 *. before)

(* ------------------------------------------------------------------ *)
(* Closed-loop comparisons on the simulator (the Fig. 10/11 shape) *)

let closed_loop make =
  let trace = Trace.constant ~name:"c48" ~duration_ms:8000 ~mbps:48. in
  Runner.run ~trace ~min_rtt_ms:40
    ~buffer_pkts:(Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace ~min_rtt_ms:40)
    ~duration_ms:8000 make

let test_closed_loop_cubic_fills_link () =
  let m = closed_loop (fun () -> Cubic.to_controller (Cubic.create ())) in
  check_bool "high utilization" true (m.Runner.utilization > 0.9);
  check_bool "bufferbloat delays" true (m.Runner.p95_qdelay_ms > 30.)

let test_closed_loop_vegas_low_delay () =
  let m = closed_loop (fun () -> Vegas.to_controller (Vegas.create ())) in
  check_bool "low delay" true (m.Runner.p95_qdelay_ms < 10.);
  check_bool "decent utilization" true (m.Runner.utilization > 0.7)

let test_closed_loop_bbr_in_between () =
  let m = closed_loop (fun () -> Bbr.to_controller (Bbr.create ())) in
  check_bool "good utilization" true (m.Runner.utilization > 0.85);
  check_bool "moderate delay" true (m.Runner.p95_qdelay_ms < 40.)

let test_closed_loop_ordering () =
  (* The qualitative ordering the paper's evaluation plots rely on. *)
  let cubic = closed_loop (fun () -> Cubic.to_controller (Cubic.create ())) in
  let vegas = closed_loop (fun () -> Vegas.to_controller (Vegas.create ())) in
  check_bool "cubic beats vegas on throughput" true
    (cubic.Runner.utilization > vegas.Runner.utilization);
  check_bool "vegas beats cubic on delay" true
    (vegas.Runner.p95_qdelay_ms < cubic.Runner.p95_qdelay_ms)

(* The per-bin series of the oracle runner, which [test_golden] pins. *)
let test_runner_series () =
  let trace = Trace.constant ~name:"c12" ~duration_ms:2000 ~mbps:12. in
  let _, series =
    Oracle.runner_run ~series_bin_ms:100 ~trace ~min_rtt_ms:20 ~buffer_pkts:50
      ~duration_ms:2000 (fun () -> Cubic.to_controller (Cubic.create ()))
  in
  match series with
  | None -> Alcotest.fail "expected series"
  | Some s ->
      Alcotest.(check int) "bins" 20 (Array.length s.Oracle.throughput_mbps);
      check_float "capacity per bin" 12. s.Oracle.capacity_mbps.(5);
      check_bool "throughput bounded by capacity + slack" true
        (Array.for_all (fun x -> x <= 20.) s.Oracle.throughput_mbps)

let test_buffer_of_bdp () =
  let trace = Trace.constant ~name:"c12" ~duration_ms:1000 ~mbps:12. in
  (* 12 Mbps × 100 ms = 100 pkts; 2 BDP = 200 *)
  Alcotest.(check int) "2 bdp" 200
    (Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace ~min_rtt_ms:100);
  Alcotest.(check int) "at least 1" 1
    (Runner.buffer_of_bdp ~bdp_multiplier:0.001 ~trace ~min_rtt_ms:2)

let suite =
  [
    ("cubic slow start", `Quick, test_cubic_slow_start_growth);
    ("cubic loss reaction", `Quick, test_cubic_loss_reaction);
    ("cubic loss guard", `Quick, test_cubic_loss_guard);
    ("cubic concave recovery", `Quick, test_cubic_concave_recovery);
    ("cubic force_cwnd", `Quick, test_cubic_force_cwnd);
    ("cubic controller wrapper", `Quick, test_cubic_controller_wrapper);
    ("reno slow start/ca", `Quick, test_reno_slow_start_then_ca);
    ("reno floor", `Quick, test_reno_floor);
    ("vegas base rtt", `Quick, test_vegas_tracks_base_rtt);
    ("vegas backs off on delay", `Quick, test_vegas_backs_off_on_delay);
    ("vegas grows uncongested", `Quick, test_vegas_grows_when_uncongested);
    ("vegas loss reaction", `Quick, test_vegas_loss_reaction);
    ("vegas alpha/beta band", `Quick, test_vegas_alpha_beta_band);
    ("bbr startup mode", `Quick, test_bbr_starts_in_startup);
    ("bbr estimates", `Quick, test_bbr_estimates);
    ("bbr leaves startup", `Quick, test_bbr_leaves_startup_on_plateau);
    ("bbr cwnd tracks bdp", `Quick, test_bbr_cwnd_tracks_bdp);
    ("bbr loss tolerant", `Quick, test_bbr_loss_tolerant);
    ("closed loop: cubic", `Quick, test_closed_loop_cubic_fills_link);
    ("closed loop: vegas", `Quick, test_closed_loop_vegas_low_delay);
    ("closed loop: bbr", `Quick, test_closed_loop_bbr_in_between);
    ("closed loop: ordering", `Quick, test_closed_loop_ordering);
    ("runner time series", `Quick, test_runner_series);
    ("buffer_of_bdp", `Quick, test_buffer_of_bdp);
  ]

(* ------------------------------------------------------------------ *)
(* PCC Vivace *)

(* A clean monitor interval (one RTT, no loss) scores the throughput
   term alone, x^0.9: here 60 ACKs in the 20 ms after a 20 ms warmup,
   x = 3 packets per ms. *)
let test_vivace_utility_exponent () =
  let v = Vivace.create () in
  ack ~now:1 ~rtt:20 (Vivace.on_acks v);
  Vivace.on_acks v ~now_ms:30 ~rtt_ms:20 ~first_seq:1 ~count:59 ~delivered:60;
  ack ~now:40 ~rtt:20 (Vivace.on_acks v);
  check_float "x ** 0.9" (3. ** 0.9) (Vivace.utility v)

let test_vivace_rate_accessors () =
  let v = Vivace.create () in
  check_float "initial rate" 1. (Vivace.rate_pkts_per_ms v);
  check_float "no utility yet" 0. (Vivace.utility v);
  check_bool "cwnd positive" true (Vivace.cwnd v >= 2.)

let vivace_closed_loop ?(mbps = 48.) ?(ms = 15_000) () =
  let trace = Trace.constant ~name:"c" ~duration_ms:ms ~mbps in
  Runner.run ~trace ~min_rtt_ms:40
    ~buffer_pkts:(Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace ~min_rtt_ms:40)
    ~duration_ms:ms
    (fun () -> Vivace.to_controller (Vivace.create ()))

let test_vivace_fills_stable_link () =
  let m = vivace_closed_loop () in
  check_bool "high utilization" true (m.Runner.utilization > 0.85);
  check_bool "low delay" true (m.Runner.p95_qdelay_ms < 20.)

let test_vivace_tracks_capacity_down () =
  (* On a step-down link the latency-gradient/loss terms must pull the
     rate back: loss stays moderate despite halvings of capacity. *)
  let trace =
    Canopy_trace.Synthetic.step_fluctuation ~duration_ms:15_000
      ~period_ms:2_000 ~low_mbps:12. ~high_mbps:48. ()
  in
  let m =
    Runner.run ~trace ~min_rtt_ms:40
      ~buffer_pkts:
        (Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace ~min_rtt_ms:40)
      ~duration_ms:15_000
      (fun () -> Vivace.to_controller (Vivace.create ()))
  in
  check_bool "keeps utilization" true (m.Runner.utilization > 0.6);
  check_bool "bounded loss" true (m.Runner.loss_rate < 0.05)

let test_vivace_utility_rewards_throughput () =
  (* With everything else equal, feeding more acks per interval must not
     lower the measured utility (x^t is increasing). Drive two fresh
     instances through synthetic ack streams. *)
  let drive acks_per_mi =
    let v = Vivace.create () in
    (* establish srtt = 20 *)
    ack ~now:1 ~rtt:20 (Vivace.on_acks v);
    (* one full warmup + measurement interval: events at 41..80 *)
    for i = 1 to acks_per_mi do
      ack ~now:(41 + (i * 39 / acks_per_mi)) ~rtt:20 (Vivace.on_acks v)
    done;
    (* close the interval *)
    ack ~now:100 ~rtt:20 (Vivace.on_acks v);
    Vivace.utility v
  in
  check_bool "more acks, more utility" true (drive 40 >= drive 10)

let vivace_suite =
  [
    ("vivace utility exponent", `Quick, test_vivace_utility_exponent);
    ("vivace accessors", `Quick, test_vivace_rate_accessors);
    ("vivace fills stable link", `Quick, test_vivace_fills_stable_link);
    ("vivace tracks capacity down", `Quick, test_vivace_tracks_capacity_down);
    ("vivace utility monotone in throughput", `Quick,
      test_vivace_utility_rewards_throughput);
  ]

(* ------------------------------------------------------------------ *)
(* Property-based invariants over the controllers *)

(* The one-comparison forms the per-packet layers write for
   [Float.min c v] and [Float.max c v] when [c] is a constant >= +0 and
   not NaN (DESIGN §12, "The per-packet path"). *)
let cap c v = if v > c then c else v
let floor_at c v = if v <= c then c else v

let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A bound: every constant the controllers and the link use, a random
   one, the smallest subnormal and +∞. A value: ±0, ±∞, NaN of both
   signs, subnormals, the extremes, the bound, its neighbours and its
   negation, or any float. *)
let gen_bound_and_value =
  QCheck.Gen.(
    let* c =
      frequency
        [
          (4, oneofl [ 0.; 0.5; 1.; 2.; 4.; 5.; 10.; 100_000. ]);
          (2, float_range 0. 1e6);
          (1, oneofl [ 4.9e-324; Float.infinity ]);
        ]
    in
    let* v =
      frequency
        [
          ( 3,
            oneofl
              [
                0.; -0.; Float.infinity; Float.neg_infinity; Float.nan;
                -.Float.nan; 4.9e-324; -4.9e-324; 1e-310; -1e-310;
                Float.min_float; Float.max_float; -.Float.max_float;
              ] );
          (3, oneofl [ c; Float.succ c; Float.pred c; -.c ]);
          (2, float_range (-1e6) 1e6);
          (1, float);
        ]
    in
    return (c, v))

let qcheck_cc =
  let open QCheck in
  let ack_stream =
    (* random feedback sequences: (dt_ms, rtt_ms, is_loss) triples *)
    list_of_size Gen.(10 -- 200)
      (triple (int_range 1 50) (int_range 20 300) bool)
  in
  let drive_controller make stream =
    let ctrl = make () in
    let now = ref 0 in
    let delivered = ref 0 in
    List.iter
      (fun (dt, rtt, is_loss) ->
        now := !now + dt;
        if is_loss then ctrl.Controller.on_loss ~now_ms:!now ~count:1
        else begin
          incr delivered;
          ctrl.Controller.on_acks ~now_ms:!now ~rtt_ms:rtt
            ~first_seq:!delivered ~count:1 ~delivered:!delivered
        end)
      stream;
    ctrl.Controller.cwnd ()
  in
  (* Random runs: (dt_ms, rtt_ms, is_loss, count); dt = 0 puts two runs
     in one millisecond, where the loss guards matter. *)
  let run_stream =
    list_of_size Gen.(10 -- 200)
      (quad (int_range 0 20) (int_range 20 300) bool (int_range 1 8))
  in
  (* A run leaves a controller exactly where its events fed one by one
     (runs of one) leave it: the windows are compared bit for bit after
     every run. *)
  let runs_match_single_events make stream =
    let a : Controller.t = make () and b : Controller.t = make () in
    let now = ref 0 and delivered = ref 0 in
    List.for_all
      (fun (dt, rtt, is_loss, count) ->
        now := !now + dt;
        if is_loss then begin
          a.on_loss ~now_ms:!now ~count;
          for _ = 1 to count do
            b.on_loss ~now_ms:!now ~count:1
          done
        end
        else begin
          let first_seq = !delivered in
          delivered := !delivered + count;
          a.on_acks ~now_ms:!now ~rtt_ms:rtt ~first_seq ~count
            ~delivered:!delivered;
          for k = 0 to count - 1 do
            b.on_acks ~now_ms:!now ~rtt_ms:rtt ~first_seq:(first_seq + k)
              ~count:1
              ~delivered:(!delivered - count + 1 + k)
          done
        end;
        Int64.equal
          (Int64.bits_of_float (a.cwnd ()))
          (Int64.bits_of_float (b.cwnd ())))
      stream
  in
  let runs_test name make =
    Test.make ~name:(name ^ ": a run equals its events one by one") ~count:200
      run_stream (runs_match_single_events make)
  in
  [
    Test.make ~name:"cubic window finite and >= 2 under any feedback"
      ~count:100 ack_stream
      (fun stream ->
        let w =
          drive_controller
            (fun () -> Cubic.to_controller (Cubic.create ()))
            stream
        in
        Float.is_finite w && w >= 2.);
    Test.make ~name:"reno window finite and >= 2 under any feedback"
      ~count:100 ack_stream
      (fun stream ->
        let w =
          drive_controller (fun () -> Reno.to_controller (Reno.create ())) stream
        in
        Float.is_finite w && w >= 2.);
    Test.make ~name:"vegas window finite and >= 2 under any feedback"
      ~count:100 ack_stream
      (fun stream ->
        let w =
          drive_controller
            (fun () -> Vegas.to_controller (Vegas.create ()))
            stream
        in
        Float.is_finite w && w >= 2.);
    Test.make ~name:"bbr window finite and >= 4 under any feedback"
      ~count:100 ack_stream
      (fun stream ->
        let w =
          drive_controller (fun () -> Bbr.to_controller (Bbr.create ())) stream
        in
        Float.is_finite w && w >= 4.);
    Test.make ~name:"vivace window finite and >= 2 under any feedback"
      ~count:100 ack_stream
      (fun stream ->
        let w =
          drive_controller
            (fun () -> Vivace.to_controller (Vivace.create ()))
            stream
        in
        Float.is_finite w && w >= 2.);
    runs_test "cubic" (fun () -> Cubic.to_controller (Cubic.create ()));
    runs_test "reno" (fun () -> Reno.to_controller (Reno.create ()));
    runs_test "vegas" (fun () -> Vegas.to_controller (Vegas.create ()));
    runs_test "bbr" (fun () -> Bbr.to_controller (Bbr.create ()));
    runs_test "vivace" (fun () -> Vivace.to_controller (Vivace.create ()));
    Test.make ~name:"constant-bound min/max forms = Float.min/max (bits)"
      ~count:2_000
      (make ~print:(fun (c, v) -> Printf.sprintf "c %h v %h" c v)
         gen_bound_and_value)
      (fun (c, v) ->
        same_bits (cap c v) (Float.min c v)
        && same_bits (floor_at c v) (Float.max c v));
  ]

let suite =
  suite @ vivace_suite
  @ List.map QCheck_alcotest.to_alcotest qcheck_cc
  @ [
      ( "bbr max filter keeps an older max",
        `Quick,
        test_bbr_max_filter_keeps_older_max );
      ("cubic srtt ewma", `Quick, test_cubic_srtt_ewma);
    ]
