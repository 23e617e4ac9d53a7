(* Aggregated alcotest runner for the whole repository. *)

let () =
  Alcotest.run "canopy"
    [
      ("util", Test_util.suite);
      ("tensor", Test_tensor.suite);
      ("nn", Test_nn.suite);
      ("absint", Test_absint.suite);
      ("trace", Test_trace.suite);
      ("netsim", Test_netsim.suite);
      ("multiflow", Test_multiflow.suite);
      ("fleet", Test_fleet.suite);
      ("golden", Test_golden.suite);
      ("cc", Test_cc.suite);
      ("rl", Test_rl.suite);
      ("orca", Test_orca.suite);
      ("core", Test_core.suite);
      ("zonotope", Test_zonotope.suite);
      ("shield", Test_shield.suite);
      ("temporal", Test_temporal.suite);
      ("properties", Test_properties.suite);
      ("analysis", Test_analysis.suite);
      ("scenario", Test_scenario.suite);
      ("distill", Test_distill.suite);
      ("racecheck", Test_racecheck.suite);
      ("pool", Test_pool.suite);
      ("alloc", Test_alloc.suite);
    ]
