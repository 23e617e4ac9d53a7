(* Tests for links that carry several flows: conservation, fairness of
   identical AIMD flows, the classic Cubic-vs-Vegas unfairness, per-flow
   feedback plumbing, the rules that keep shared links one code path
   with one-flow links, and determinism of fleets that mix both. *)

module Fleet = Canopy_netsim.Fleet
module Env = Canopy_netsim.Env
module Trace = Canopy_trace.Trace
module Stats = Canopy_util.Stats
module Pool = Canopy_util.Pool
module Crc32 = Canopy_util.Crc32
open Canopy_cc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let flow_config ?(mbps = 48.) ?(duration = 10_000) ?(buffer = 320) min_rtt =
  {
    Env.trace = Trace.constant ~name:"c" ~duration_ms:duration ~mbps;
    min_rtt_ms = min_rtt;
    buffer_pkts = buffer;
    mtu_bytes = 1500;
    initial_cwnd = 10.;
    impairments = Env.no_impairments;
  }

(* [flows] flows on one link; [min_rtts] overrides their minRTTs. The
   flows share one trace value, as flows on one link must. *)
let shared ?(flows = 2) ?mbps ?duration ?(min_rtt = 40) ?min_rtts ?buffer
    () =
  let min_rtts =
    Option.value ~default:(Array.make flows min_rtt) min_rtts
  in
  let cfg = flow_config ?mbps ?duration ?buffer min_rtt in
  Fleet.create
    ~link:(Array.make (Array.length min_rtts) 0)
    (Array.map (fun min_rtt_ms -> { cfg with min_rtt_ms }) min_rtts)

let null_handlers n = Array.make n Oracle.null_handlers

let per_flow f fleet = Array.init (Fleet.flows fleet) (fun flow -> f fleet ~flow)

let jain fleet =
  Stats.jain_index (Array.map float_of_int (per_flow Fleet.delivered fleet))

(* Aggregate delivered packets over the link's offered capacity. *)
let link_utilization fleet =
  float_of_int (Array.fold_left ( + ) 0 (per_flow Fleet.delivered fleet))
  /. Fleet.capacity_pkts fleet ~flow:0

let drive_controllers fleet controllers ~ms =
  let handlers = Array.map Controller.handlers controllers in
  let after_tick i =
    Fleet.set_cwnd fleet ~flow:i (controllers.(i).Controller.cwnd ())
  in
  Fleet.run ~after_tick fleet handlers ~ms

let raises msg f =
  Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ()))

let test_validation () =
  raises "Fleet.create: no flows" (fun () -> Fleet.create ~link:[||] [||]);
  let fleet = shared () in
  raises "Fleet.run: one handlers record per flow" (fun () ->
      Fleet.run fleet (null_handlers 1) ~ms:1);
  let cfg = flow_config 40 in
  raises "Fleet.create: link" (fun () -> Fleet.create ~link:[| 0 |] [| cfg; cfg |]);
  raises "Fleet.create: start_ms" (fun () ->
      Fleet.create ~start_ms:[| 0 |] [| cfg; cfg |]);
  raises "Fleet.create: start_ms" (fun () ->
      Fleet.create ~start_ms:[| 0; -1 |] [| cfg; cfg |])

(* Flows on one link must agree on everything the link owns; flows on
   different links may differ in all of it. *)
let test_shared_link_must_agree () =
  let cfg = flow_config 40 in
  let pair other = Fleet.create ~link:[| 7; 7 |] [| cfg; other |] in
  let differ what = "Fleet.create: flows on one link differ in " ^ what in
  raises (differ "trace") (fun () ->
      pair { cfg with trace = Trace.constant ~name:"c" ~duration_ms:10_000 ~mbps:48. });
  raises (differ "buffer_pkts") (fun () -> pair { cfg with buffer_pkts = 321 });
  raises (differ "mtu_bytes") (fun () -> pair { cfg with mtu_bytes = 1400 });
  List.iter
    (fun impairments -> raises (differ "impairments") (fun () -> pair { cfg with impairments }))
    [
      { Env.no_impairments with random_loss = 0.01 };
      { Env.no_impairments with ack_jitter_ms = 2 };
      { Env.no_impairments with reorder_prob = 0.1 };
      { Env.no_impairments with reorder_ms = 5 };
      { Env.no_impairments with seed = 1 };
    ];
  let other = { cfg with buffer_pkts = 321; min_rtt_ms = 20; initial_cwnd = 4. } in
  check_int "separate links may differ" 2
    (Fleet.flows (Fleet.create ~link:[| 0; 1 |] [| cfg; other |]));
  check_int "minRTT and window may differ" 2
    (Fleet.flows
       (Fleet.create ~link:[| 3; 3 |]
          [| cfg; { cfg with min_rtt_ms = 20; initial_cwnd = 4. } |]))

let test_non_finite_windows () =
  let fleet = shared () in
  Fleet.set_cwnd fleet ~flow:1 25.;
  List.iter
    (fun w ->
      Alcotest.check_raises (Printf.sprintf "%h" w)
        (Invalid_argument "Fleet.set_cwnd: non-finite window") (fun () ->
          Fleet.set_cwnd fleet ~flow:1 w);
      check_float "window kept" 25. (Fleet.cwnd fleet ~flow:1))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun initial_cwnd ->
      Alcotest.check_raises (Printf.sprintf "initial %h" initial_cwnd)
        (Invalid_argument "Fleet.create: initial_cwnd") (fun () ->
          ignore
            (Fleet.create ~link:[| 0; 0 |]
               [| flow_config 40; { (flow_config 40) with initial_cwnd } |])))
    [ Float.nan; Float.infinity; 0.5 ]

let test_basic_accounting () =
  let fleet = shared () in
  Fleet.run fleet (null_handlers 2) ~ms:2000;
  check_int "two flows" 2 (Fleet.flows fleet);
  check_int "clock" 2000 (Fleet.now_ms fleet);
  check_bool "flow 0 delivered" true (Fleet.delivered fleet ~flow:0 > 0);
  check_bool "flow 1 delivered" true (Fleet.delivered fleet ~flow:1 > 0);
  check_bool "delivered <= sent" true
    (Fleet.delivered fleet ~flow:0 <= Fleet.sent fleet ~flow:0);
  check_int "one queue" (Fleet.queue_len fleet ~flow:0)
    (Fleet.queue_len fleet ~flow:1)

let test_identical_flows_fair () =
  (* Two identical fixed windows share the link exactly evenly. *)
  let fleet = shared ~mbps:24. () in
  Fleet.set_cwnd fleet ~flow:0 40.;
  Fleet.set_cwnd fleet ~flow:1 40.;
  Fleet.run fleet (null_handlers 2) ~ms:10_000;
  check_bool "jain near 1" true (jain fleet > 0.99)

let test_cubic_pair_fair_and_full () =
  let fleet = shared ~mbps:48. () in
  let cubs = Array.init 2 (fun _ -> Cubic.create ()) in
  drive_controllers fleet (Array.map Cubic.to_controller cubs) ~ms:20_000;
  check_bool "fair" true (jain fleet > 0.95);
  check_bool "full link" true (link_utilization fleet > 0.9)

let test_cubic_starves_vegas () =
  (* The classic result: a loss-based flow fills the buffer and the
     delay-based flow backs off. *)
  let fleet = shared ~mbps:48. () in
  let cub = Cubic.create () and veg = Vegas.create () in
  drive_controllers fleet
    [| Cubic.to_controller cub; Vegas.to_controller veg |]
    ~ms:20_000;
  check_bool "cubic dominates" true
    (Fleet.throughput_mbps fleet ~flow:0
    > 5. *. Fleet.throughput_mbps fleet ~flow:1);
  check_bool "jain below fair" true (jain fleet < 0.8)

let test_heterogeneous_rtt_bias () =
  (* AIMD favours the short-RTT flow; the long-RTT flow should get a
     smaller (but non-zero) share. *)
  let fleet = shared ~mbps:48. ~min_rtts:[| 20; 120 |] () in
  let cubs = Array.init 2 (fun _ -> Cubic.create ()) in
  drive_controllers fleet (Array.map Cubic.to_controller cubs) ~ms:20_000;
  check_bool "short RTT ahead" true
    (Fleet.throughput_mbps fleet ~flow:0 > Fleet.throughput_mbps fleet ~flow:1);
  check_bool "long RTT alive" true (Fleet.delivered fleet ~flow:1 > 0)

let test_per_flow_feedback_isolated () =
  let fleet = shared ~mbps:12. ~buffer:10 () in
  let acks = [| 0; 0 |] in
  let handlers =
    Array.init 2 (fun i ->
        {
          Oracle.null_handlers with
          Env.on_acks =
            (fun ~now_ms:_ ~rtt_ms:_ ~first_seq:_ ~count ~delivered:_ ->
              acks.(i) <- acks.(i) + count);
        })
  in
  Fleet.set_cwnd fleet ~flow:0 20.;
  Fleet.set_cwnd fleet ~flow:1 1.;
  Fleet.run fleet handlers ~ms:3000;
  check_int "handler count matches deliveries (flow 0)"
    (Fleet.delivered fleet ~flow:0) acks.(0);
  check_int "handler count matches deliveries (flow 1)"
    (Fleet.delivered fleet ~flow:1) acks.(1);
  check_bool "window asymmetry visible" true (acks.(0) > 3 * acks.(1))

let test_rtt_reflects_per_flow_propagation () =
  let fleet = shared ~min_rtts:[| 20; 80 |] () in
  let min_rtts = [| max_int; max_int |] in
  let handlers =
    Array.init 2 (fun i ->
        {
          Oracle.null_handlers with
          Env.on_acks =
            (fun ~now_ms:_ ~rtt_ms ~first_seq:_ ~count:_ ~delivered:_ ->
              min_rtts.(i) <- Int.min min_rtts.(i) rtt_ms);
        })
  in
  Fleet.run fleet handlers ~ms:2000;
  check_int "flow 0 floor" 20 min_rtts.(0);
  check_int "flow 1 floor" 80 min_rtts.(1)

let test_shared_buffer_conserved () =
  (* Aggregate delivered packets never exceed offered capacity. *)
  let fleet = shared ~mbps:12. ~buffer:30 () in
  Fleet.set_cwnd fleet ~flow:0 200.;
  Fleet.set_cwnd fleet ~flow:1 200.;
  Fleet.run fleet (null_handlers 2) ~ms:5000;
  check_bool "utilization <= 1" true (link_utilization fleet <= 1.);
  check_bool "drops happened" true
    (Fleet.dropped fleet ~flow:0 + Fleet.dropped fleet ~flow:1 > 0)

let test_single_flow_degenerates () =
  let fleet = shared ~flows:1 () in
  Fleet.run fleet (null_handlers 1) ~ms:2000;
  check_float "jain trivial" 1. (jain fleet);
  check_bool "delivers" true (Fleet.delivered fleet ~flow:0 > 0)

(* ------------------------------------------------------------------ *)
(* Shared links are one code path with one-flow links *)

(* Handlers that write every event into [b] as a per-packet simulator
   would report it: a run of ACKs expands to one record per ACK. *)
let record b =
  let add n = Buffer.add_int64_le b (Int64.of_int n) in
  {
    Env.on_acks =
      (fun ~now_ms ~rtt_ms ~first_seq ~count ~delivered ->
        for k = 0 to count - 1 do
          add 0;
          add now_ms;
          add (first_seq + k);
          add rtt_ms;
          add (delivered - count + 1 + k)
        done);
    on_loss =
      (fun ~now_ms ~count ->
        for _ = 1 to count do
          add 1;
          add now_ms
        done);
  }

(* Drive [fleet] with Cubic on every flow for [ms]; per flow, the CRC
   of its event stream and final counters. *)
let cubic_streams fleet ~ms =
  let n = Fleet.flows fleet in
  let bufs = Array.init n (fun _ -> Buffer.create 4096) in
  let ctrls = Array.init n (fun _ -> Cubic.to_controller (Cubic.create ())) in
  let handlers =
    Array.init n (fun i -> Oracle.chain (record bufs.(i)) (Controller.handlers ctrls.(i)))
  in
  let after_tick i = Fleet.set_cwnd fleet ~flow:i (ctrls.(i).Controller.cwnd ()) in
  Fleet.run ~after_tick fleet handlers ~ms;
  Array.mapi
    (fun flow b ->
      List.iter
        (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))
        [
          float_of_int (Fleet.sent fleet ~flow);
          float_of_int (Fleet.dropped fleet ~flow);
          float_of_int (Fleet.inflight fleet ~flow);
          float_of_int (Fleet.queue_len fleet ~flow);
          Fleet.cwnd fleet ~flow;
          Fleet.avg_qdelay_ms fleet ~flow;
        ];
      Crc32.to_hex (Crc32.string (Buffer.contents b)))
    bufs

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

(* Seventeen one-flow links of assorted rates, one of them impaired,
   around a 3-flow link at minRTT 20/40/60 ms: 18 links x 3 000 ms is
   above the fleet's parallel threshold, so pools of 2 and 3 domains
   chunk the links. *)
let mixed_fleet_configs () =
  let single k =
    {
      (flow_config ~mbps:(12. +. float_of_int (3 * k)) ~duration:3_000
         ~buffer:(60 + (10 * k))
         (20 + (5 * (k mod 7))))
      with
      impairments =
        (if k = 5 then { Env.no_impairments with ack_jitter_ms = 3; seed = 5 }
         else Env.no_impairments);
    }
  in
  let trio =
    let cfg = flow_config ~mbps:36. ~duration:3_000 ~buffer:150 20 in
    Array.map (fun min_rtt_ms -> { cfg with min_rtt_ms }) [| 20; 40; 60 |]
  in
  let singles = Array.init 17 single in
  (* the trio sits at flows 8, 9, 10, all named link 100 *)
  let cfgs = Array.concat [ Array.sub singles 0 8; trio; Array.sub singles 8 9 ] in
  let link = Array.mapi (fun i _ -> if i >= 8 && i <= 10 then 100 else i) cfgs in
  (cfgs, link, trio, singles)

let test_mixed_fleet_domains_and_alone () =
  let cfgs, link, trio, singles = mixed_fleet_configs () in
  let run () = cubic_streams (Fleet.create ~link cfgs) ~ms:3_000 in
  let want = with_default_pool 1 run in
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "domains %d == domains 1" d)
        true
        (with_default_pool d run = want))
    [ 2; 3 ];
  let trio_alone =
    cubic_streams (Fleet.create ~link:[| 0; 0; 0 |] trio) ~ms:3_000
  in
  check_bool "shared link == itself alone" true
    (Array.sub want 8 3 = trio_alone);
  Array.iteri
    (fun k cfg ->
      let flow = if k < 8 then k else k + 3 in
      check_bool
        (Printf.sprintf "one-flow link %d == itself alone" k)
        true
        (cubic_streams (Fleet.create [| cfg |]) ~ms:3_000 = [| want.(flow) |]))
    singles

(* A second flow that never starts leaves the first alone on the link,
   yet the link still fills round-robin and drains packet by packet:
   the first flow's per-ACK stream must equal the one-flow fleet's. *)
let test_idle_partner_is_one_flow () =
  List.iter
    (fun impairments ->
      let cfg = { (flow_config ~mbps:24. ~duration:2_000 ~buffer:60 40) with impairments } in
      let alone = cubic_streams (Fleet.create [| cfg |]) ~ms:2_000 in
      let paired =
        cubic_streams
          (Fleet.create ~start_ms:[| 0; 2_001 |] ~link:[| 0; 0 |] [| cfg; cfg |])
          ~ms:2_000
      in
      check_bool "first flow == one-flow fleet" true (paired.(0) = alone.(0)))
    [
      Env.no_impairments;
      { Env.no_impairments with random_loss = 0.03; seed = 9 };
      { Env.no_impairments with ack_jitter_ms = 4; seed = 9 };
    ]

let suite =
  [
    ("validation", `Quick, test_validation);
    ("shared link configs must agree", `Quick, test_shared_link_must_agree);
    ("non-finite windows rejected", `Quick, test_non_finite_windows);
    ("basic accounting", `Quick, test_basic_accounting);
    ("identical windows fair", `Quick, test_identical_flows_fair);
    ("cubic pair fair and full", `Quick, test_cubic_pair_fair_and_full);
    ("cubic starves vegas", `Quick, test_cubic_starves_vegas);
    ("heterogeneous rtt bias", `Quick, test_heterogeneous_rtt_bias);
    ("per-flow feedback isolated", `Quick, test_per_flow_feedback_isolated);
    ("per-flow propagation rtt", `Quick, test_rtt_reflects_per_flow_propagation);
    ("shared buffer conserved", `Quick, test_shared_buffer_conserved);
    ("single flow degenerates", `Quick, test_single_flow_degenerates);
    ("idle partner == one-flow link", `Quick, test_idle_partner_is_one_flow);
    ( "mixed links: domains 1,2,3 and alone (bits)",
      `Quick,
      test_mixed_fleet_domains_and_alone );
  ]
