(* Certified deployment: a runtime shield on top of an unconstrained
   policy.

   Training with the verifier in the loop (Canopy) raises how often the
   policy provably satisfies the property; a shield goes further and
   makes the deployed trajectory satisfy the performance property at
   every step where its precondition is observed, by projecting actions
   into the admissible set. This example deploys the same untrained
   (random) policy with and without a shield on a congested link and
   compares behaviour and intervention counts.

   Run with: dune exec examples/certified_deployment.exe *)

let () =
  let rng = Canopy_util.Prng.create 2718 in
  let history = 5 in
  let actor =
    Canopy_nn.Mlp.actor ~rng
      ~in_dim:(history * Canopy_orca.Observation.feature_count)
      ~hidden:32 ~out_dim:1
  in
  let trace =
    Canopy_trace.Synthetic.step_fluctuation ~duration_ms:15_000
      ~period_ms:2_000 ~low_mbps:12. ~high_mbps:48. ()
  in
  let link = Canopy.Eval.link ~min_rtt_ms:40 ~bdp:2. trace in
  let property = Canopy.Property.performance () in

  let bare, _ =
    Canopy.Eval.eval_policy ~name:"bare" ~certificate:(property, 20)
      ~policy:(`Mlp actor) ~history link
  in
  let shield = Canopy.Shield.create ~property ~history in
  let shielded, steps =
    Canopy.Eval.eval_policy ~name:"shielded" ~certificate:(property, 20)
      ~shield ~collect_steps:true ~policy:(`Mlp actor) ~history link
  in
  Format.printf "untrained policy, with and without a runtime shield:@.";
  Format.printf "  %a@." Canopy.Eval.pp_result bare;
  Format.printf "  %a@." Canopy.Eval.pp_result shielded;
  Format.printf "@.shield interventions: %d of %d steps@."
    (Canopy.Shield.interventions shield)
    (Canopy.Shield.steps shield);

  (* Verify the enforcement on the recorded trajectory. The shield's
     precondition is over the k observations BEFORE a step, so a step is
     applicable when the previous five records all reported high (resp.
     low) delay: [high] and [low] count the latest consecutive such
     records. *)
  let high = ref 0 and low = ref 0 in
  let hi_app = ref 0 and hi_bad = ref 0 in
  let lo_app = ref 0 and lo_bad = ref 0 in
  let prev = ref 10. in
  List.iter
    (fun (s : Canopy.Eval.step_record) ->
      if !high >= history then begin
        incr hi_app;
        if s.cwnd_enforced > !prev +. 1e-9 then incr hi_bad
      end;
      if !low >= history then begin
        incr lo_app;
        if s.cwnd_enforced < !prev -. 1e-9 then incr lo_bad
      end;
      high := if s.delay_norm >= 0.75 then !high + 1 else 0;
      low := if s.delay_norm <= 0.25 then !low + 1 else 0;
      prev := s.cwnd_enforced)
    steps;
  Format.printf
    "high-delay history steps: %d (window grew on %d);@. low-delay history \
     steps: %d (window shrank on %d)@."
    !hi_app !hi_bad !lo_app !lo_bad;
  Format.printf
    "@.The shield turns property compliance from a statistical tendency@.";
  Format.printf
    "(the FCC/FCS certified metrics above) into a runtime guarantee at@.";
  Format.printf "the cost of occasional interventions.@."
