(* Tests for the shared-bottleneck multi-flow simulator: conservation,
   fairness of identical AIMD flows, the classic Cubic-vs-Vegas
   unfairness, and per-flow feedback plumbing. *)

module MF = Canopy_netsim.Multiflow
module Env = Canopy_netsim.Env
module Trace = Canopy_trace.Trace
open Canopy_cc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let config ?(flows = 2) ?(mbps = 48.) ?(duration = 10_000) ?(min_rtt = 40)
    ?(buffer = 320) () =
  {
    MF.trace = Trace.constant ~name:"c" ~duration_ms:duration ~mbps;
    min_rtt_ms = Array.make flows min_rtt;
    buffer_pkts = buffer;
    mtu_bytes = 1500;
    initial_cwnd = 10.;
  }

let null_handlers n = Array.make n Env.null_handlers

let drive_controllers mf controllers ~ms =
  let handlers =
    Array.map (fun c -> Controller.handlers c) controllers
  in
  for _ = 1 to ms do
    MF.tick mf handlers;
    Array.iteri
      (fun i c -> MF.set_cwnd mf ~flow:i (c.Controller.cwnd ()))
      controllers
  done

let test_validation () =
  Alcotest.check_raises "no flows" (Invalid_argument "Multiflow.create: no flows")
    (fun () ->
      ignore
        (MF.create
           {
             MF.trace = Trace.constant ~name:"c" ~duration_ms:10 ~mbps:1.;
             min_rtt_ms = [||];
             buffer_pkts = 1;
             mtu_bytes = 1500;
             initial_cwnd = 2.;
           }));
  let mf = MF.create (config ()) in
  Alcotest.check_raises "handlers arity"
    (Invalid_argument "Multiflow.tick: handlers") (fun () ->
      MF.tick mf (null_handlers 1))

let test_non_finite_windows () =
  let mf = MF.create (config ()) in
  MF.set_cwnd mf ~flow:1 25.;
  List.iter
    (fun w ->
      Alcotest.check_raises (Printf.sprintf "%h" w)
        (Invalid_argument "Multiflow.set_cwnd: non-finite window") (fun () ->
          MF.set_cwnd mf ~flow:1 w);
      check_float "window kept" 25. (MF.cwnd mf ~flow:1))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  List.iter
    (fun initial_cwnd ->
      Alcotest.check_raises (Printf.sprintf "initial %h" initial_cwnd)
        (Invalid_argument "Multiflow.create: initial_cwnd") (fun () ->
          ignore (MF.create { (config ()) with initial_cwnd })))
    [ Float.nan; Float.infinity; 0.5 ]

let test_basic_accounting () =
  let mf = MF.create (config ()) in
  MF.run mf (null_handlers 2) ~ms:2000;
  check_int "two flows" 2 (MF.flows mf);
  check_int "clock" 2000 (MF.now_ms mf);
  check_bool "flow 0 delivered" true (MF.delivered mf ~flow:0 > 0);
  check_bool "flow 1 delivered" true (MF.delivered mf ~flow:1 > 0);
  check_bool "delivered <= sent" true
    (MF.delivered mf ~flow:0 <= MF.sent mf ~flow:0)

let test_identical_flows_fair () =
  (* Two identical fixed windows share the link exactly evenly. *)
  let mf = MF.create (config ~mbps:24. ()) in
  MF.set_cwnd mf ~flow:0 40.;
  MF.set_cwnd mf ~flow:1 40.;
  MF.run mf (null_handlers 2) ~ms:10_000;
  check_bool "jain near 1" true (MF.jain_index mf > 0.99)

let test_cubic_pair_fair_and_full () =
  let mf = MF.create (config ~mbps:48. ()) in
  let cubs = Array.init 2 (fun _ -> Cubic.create ()) in
  drive_controllers mf (Array.map Cubic.to_controller cubs) ~ms:20_000;
  check_bool "fair" true (MF.jain_index mf > 0.95);
  check_bool "full link" true (MF.utilization mf > 0.9)

let test_cubic_starves_vegas () =
  (* The classic result: a loss-based flow fills the buffer and the
     delay-based flow backs off. *)
  let mf = MF.create (config ~mbps:48. ()) in
  let cub = Cubic.create () and veg = Vegas.create () in
  drive_controllers mf
    [| Cubic.to_controller cub; Vegas.to_controller veg |]
    ~ms:20_000;
  check_bool "cubic dominates" true
    (MF.throughput_mbps mf ~flow:0 > 5. *. MF.throughput_mbps mf ~flow:1);
  check_bool "jain below fair" true (MF.jain_index mf < 0.8)

let test_heterogeneous_rtt_bias () =
  (* AIMD favours the short-RTT flow; the long-RTT flow should get a
     smaller (but non-zero) share. *)
  let cfg = { (config ~mbps:48. ()) with MF.min_rtt_ms = [| 20; 120 |] } in
  let mf = MF.create cfg in
  let cubs = Array.init 2 (fun _ -> Cubic.create ()) in
  drive_controllers mf (Array.map Cubic.to_controller cubs) ~ms:20_000;
  check_bool "short RTT ahead" true
    (MF.throughput_mbps mf ~flow:0 > MF.throughput_mbps mf ~flow:1);
  check_bool "long RTT alive" true (MF.delivered mf ~flow:1 > 0)

let test_per_flow_feedback_isolated () =
  let mf = MF.create (config ~mbps:12. ~buffer:10 ()) in
  let acks = [| 0; 0 |] in
  let handlers =
    Array.init 2 (fun i ->
        {
          Env.null_handlers with
          on_acks =
            (fun ~now_ms:_ ~rtt_ms:_ ~first_seq:_ ~count ~delivered:_ ->
              acks.(i) <- acks.(i) + count);
        })
  in
  MF.set_cwnd mf ~flow:0 20.;
  MF.set_cwnd mf ~flow:1 1.;
  MF.run mf handlers ~ms:3000;
  check_int "handler count matches deliveries (flow 0)"
    (MF.delivered mf ~flow:0) acks.(0);
  check_int "handler count matches deliveries (flow 1)"
    (MF.delivered mf ~flow:1) acks.(1);
  check_bool "window asymmetry visible" true (acks.(0) > 3 * acks.(1))

let test_rtt_reflects_per_flow_propagation () =
  let cfg = { (config ()) with MF.min_rtt_ms = [| 20; 80 |] } in
  let mf = MF.create cfg in
  let min_rtts = [| max_int; max_int |] in
  let handlers =
    Array.init 2 (fun i ->
        {
          Env.null_handlers with
          on_acks =
            (fun ~now_ms:_ ~rtt_ms ~first_seq:_ ~count:_ ~delivered:_ ->
              min_rtts.(i) <- min min_rtts.(i) rtt_ms);
        })
  in
  MF.run mf handlers ~ms:2000;
  check_int "flow 0 floor" 20 min_rtts.(0);
  check_int "flow 1 floor" 80 min_rtts.(1)

let test_shared_buffer_conserved () =
  (* Aggregate delivered packets never exceed offered capacity. *)
  let mf = MF.create (config ~mbps:12. ~buffer:30 ()) in
  MF.set_cwnd mf ~flow:0 200.;
  MF.set_cwnd mf ~flow:1 200.;
  MF.run mf (null_handlers 2) ~ms:5000;
  check_bool "utilization <= 1" true (MF.utilization mf <= 1.);
  check_bool "drops happened" true
    (MF.dropped mf ~flow:0 + MF.dropped mf ~flow:1 > 0)

let test_single_flow_degenerates () =
  let mf = MF.create (config ~flows:1 ()) in
  MF.run mf (null_handlers 1) ~ms:2000;
  check_float "jain trivial" 1. (MF.jain_index mf);
  check_bool "delivers" true (MF.delivered mf ~flow:0 > 0)

let suite =
  [
    ("validation", `Quick, test_validation);
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
  ]
