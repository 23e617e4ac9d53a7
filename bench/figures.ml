(* The paper's tables and figures (Section 6) at a laptop scale, the
   Table 3 epoch rates and the verifier ablation. *)

open Harness

(* ------------------------------------------------------------------ *)
(* Helpers *)

let orca () =
  get_model ~name:"orca" ~lambda:0. ~property:(Property.performance ())
    ~n_components:5

let canopy_rob () =
  get_model ~name:"canopy-rob" ~lambda:0.25 ~property:(Property.robustness ())
    ~n_components:5

let by_category ts =
  ( List.filter (fun t -> Suite.category_of t = Suite.Synthetic) ts,
    List.filter (fun t -> Suite.category_of t = Suite.Real) ts )

(* Per-case FCC/FCS from collected step certificates. *)
let percase_stats steps case =
  let per_step =
    List.filter_map
      (fun (s : Eval.step_record) ->
        match s.certificate with
        | None -> None
        | Some cert ->
            let comps =
              Array.to_list cert.Certify.components
              |> List.filter (fun c -> c.Certify.case = case)
            in
            if comps = [] then None
            else begin
              let certified =
                List.length (List.filter (fun c -> c.Certify.certified) comps)
              in
              Some
                ( float_of_int certified /. float_of_int (List.length comps),
                  certified = List.length comps )
            end)
      steps
  in
  match per_step with
  | [] -> (0., 0., 0.)
  | _ ->
      let n = float_of_int (List.length per_step) in
      let fccs = Array.of_list (List.map fst per_step) in
      let fcs =
        float_of_int (List.length (List.filter snd per_step)) /. n
      in
      (Stats.mean fccs, Stats.stddev fccs, fcs)

(* Certified evaluation of one model over a trace list; returns per-trace
   step lists for per-case analysis. *)
let certified_runs model property bdp ts =
  List.map
    (fun trace ->
      let link = Eval.link ~min_rtt_ms ~bdp trace in
      let _, steps =
        Eval.eval_policy ~name:model.name
          ~certificate:(property, scale.eval_components) ~collect_steps:true
          ~policy:(`Mlp model.actor) ~history link
      in
      (trace, steps))
    ts

let print_fcc_fcs_table ?csv ~cases models property bdp =
  let synth, real = by_category (traces ()) in
  (* Archived worst-case scenarios (the scenario search's artifacts)
     join the grid as a third category, so certified metrics are
     reported on the conditions that actually broke earlier policies,
     not only the fixed suite. *)
  let adversarial =
    Suite.adversarial ~dir:(Filename.concat artifacts_dir "scenarios") ()
  in
  let categories =
    [ ("synthetic", synth); ("real", real) ]
    @ (if adversarial = [] then [] else [ ("adversarial", adversarial) ])
  in
  Format.printf "%-12s %-10s %-12s %-18s %-10s@." "model" "category" "case"
    "FCC (mean ± std)" "FCS";
  let rows = ref [] in
  List.iter
    (fun model ->
      List.iter
        (fun (cat_name, ts) ->
          let runs = certified_runs model property bdp ts in
          let all_steps = List.concat_map snd runs in
          List.iter
            (fun case ->
              let fcc_mean, fcc_std, fcs = percase_stats all_steps case in
              Format.printf "%-12s %-10s %-12s %6.3f ± %-9.3f %6.3f@."
                model.name cat_name (Property.case_name case) fcc_mean fcc_std
                fcs;
              rows :=
                [ model.name; cat_name; Property.case_name case;
                  Printf.sprintf "%.4f" fcc_mean;
                  Printf.sprintf "%.4f" fcc_std; Printf.sprintf "%.4f" fcs ]
                :: !rows)
            cases)
        categories)
    models;
  Option.iter
    (fun name ->
      csv_write name
        ~columns:[ "model"; "category"; "case"; "fcc_mean"; "fcc_std"; "fcs" ]
        (List.rev !rows))
    csv

(* Plain (uncertified) evaluation of a learned model over traces. *)
let policy_results model bdp ?noise ts =
  List.map
    (fun trace ->
      let link = Eval.link ~min_rtt_ms ~bdp trace in
      fst
        (Eval.eval_policy ~name:model.name ?noise ~policy:(`Mlp model.actor) ~history
           link))
    ts

let tcp_results name make bdp ts =
  List.map
    (fun trace -> Eval.eval_tcp ~name make (Eval.link ~min_rtt_ms ~bdp trace))
    ts

let print_empirical_table ?csv schemes bdp =
  let synth, real = by_category (traces ()) in
  Format.printf "%-12s %-10s %-8s %-12s %-12s %-8s@." "scheme" "category"
    "util%" "avg-qdelay" "p95-qdelay" "loss%";
  let rows = ref [] in
  List.iter
    (fun (name, results_of) ->
      List.iter
        (fun (cat_name, ts) ->
          let m = Eval.mean_results cat_name (results_of bdp ts) in
          Format.printf "%-12s %-10s %7.1f %9.1fms %9.1fms %7.2f@." name
            cat_name
            (100. *. m.Eval.utilization)
            m.Eval.avg_qdelay_ms m.Eval.p95_qdelay_ms
            (100. *. m.Eval.loss_rate);
          rows :=
            [ name; cat_name;
              Printf.sprintf "%.4f" m.Eval.utilization;
              Printf.sprintf "%.2f" m.Eval.avg_qdelay_ms;
              Printf.sprintf "%.2f" m.Eval.p95_qdelay_ms;
              Printf.sprintf "%.5f" m.Eval.loss_rate ]
            :: !rows)
        [ ("synthetic", synth); ("real", real) ])
    schemes;
  Option.iter
    (fun name ->
      csv_write name
        ~columns:
          [ "scheme"; "category"; "utilization"; "avg_qdelay_ms";
            "p95_qdelay_ms"; "loss_rate" ]
        (List.rev !rows))
    csv

(* Certificates for the first [n_steps] monitoring steps of a run. *)
let component_distribution model property bdp trace n_steps =
  let link = Eval.link ~min_rtt_ms ~bdp trace in
  let _, steps =
    Eval.eval_policy ~name:model.name
      ~certificate:(property, scale.eval_components) ~collect_steps:true
      ~policy:(`Mlp model.actor) ~history link
  in
  let window = List.filteri (fun i _ -> i < n_steps) steps in
  List.map
    (fun (s : Eval.step_record) ->
      match s.certificate with None -> assert false | Some c -> c)
    window

(* ------------------------------------------------------------------ *)
(* Table 1: observed network states *)

let table1 () =
  header "Table 1: observed network states (one monitoring interval each)";
  let trace =
    Canopy_trace.Synthetic.step_fluctuation ~duration_ms:4_000 ~period_ms:1_000
      ~low_mbps:12. ~high_mbps:48. ()
  in
  let cfg =
    Canopy_orca.Agent_env.default_config ~trace ~min_rtt_ms
      ~buffer_pkts:
        (Canopy_cc.Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace ~min_rtt_ms)
      ~duration_ms:4_000
  in
  let env = Canopy_orca.Agent_env.create cfg in
  ignore (Canopy_orca.Agent_env.reset env);
  Format.printf "%-6s %-10s %-6s %-10s %-5s %-5s %-9s@." "step" "THR(Mbps)"
    "loss" "DELAY(ms)" "n" "m" "sRTT(ms)";
  let finished = ref false in
  let step = ref 0 in
  while not !finished do
    incr step;
    let res = Canopy_orca.Agent_env.step env ~action:0. in
    let o = res.Canopy_orca.Agent_env.observation in
    if !step <= 15 then
      Format.printf "%-6d %-10.2f %-6d %-10.2f %-5d %-5d %-9.1f@." !step
        o.Canopy_orca.Observation.thr_mbps o.loss_pkts o.avg_qdelay_ms o.n_acks
        o.interval_ms o.srtt_ms;
    finished := res.Canopy_orca.Agent_env.finished
  done;
  Format.printf "(%d monitoring intervals in total)@." !step

(* ------------------------------------------------------------------ *)
(* Table 2: training environment characteristics *)

let table2 () =
  header "Table 2: training environment grid (stable links, 2 BDP buffers)";
  Format.printf "%-26s %-12s %-10s %-12s@." "link" "bw (Mbps)" "minRTT"
    "buffer (pkts)";
  List.iter
    (fun (cfg : Canopy_orca.Agent_env.config) ->
      Format.printf "%-26s %-12.1f %-10d %-12d@."
        (Trace.name cfg.trace)
        (Trace.avg_mbps cfg.trace)
        cfg.min_rtt_ms cfg.buffer_pkts)
    (train_pool ())

(* ------------------------------------------------------------------ *)
(* Fig 1: robustness to observation noise (sending-rate view) *)

let fig1 () =
  header "Figure 1: Orca vs Canopy under +/-5%% delay noise";
  let orca = orca () and canopy = canopy_rob () in
  let trace =
    Canopy_trace.Synthetic.step_fluctuation ~duration_ms:scale.trace_ms
      ~period_ms:2_000 ~low_mbps:24. ~high_mbps:96. ()
  in
  let link = Eval.link ~min_rtt_ms ~bdp:2. trace in
  Format.printf "%-12s %-7s %-8s %-12s %-12s@." "model" "noise" "util%"
    "avg-qdelay" "p95-qdelay";
  let deltas =
    List.map
      (fun model ->
        let clean, _ =
          Eval.eval_policy ~name:model.name ~policy:(`Mlp model.actor) ~history link
        in
        let noisy, _ =
          Eval.eval_policy ~name:model.name ~noise:(23, 0.05)
            ~policy:(`Mlp model.actor) ~history link
        in
        List.iter
          (fun (label, (r : Eval.result)) ->
            Format.printf "%-12s %-7s %7.1f %9.1fms %9.1fms@." model.name label
              (100. *. r.utilization) r.avg_qdelay_ms r.p95_qdelay_ms)
          [ ("clean", clean); ("+/-5%", noisy) ];
        (model.name, Eval.noise_delta ~clean ~noisy))
      [ orca; canopy ]
  in
  Format.printf "@.change caused by noise (closer to zero = more robust):@.";
  List.iter
    (fun (name, (d : Eval.noise_delta)) ->
      Format.printf "  %-12s util %+6.1f%%  avg delay %+6.1f%%  p95 %+6.1f%%@."
        name d.d_utilization_pct d.d_avg_qdelay_pct d.d_p95_qdelay_pct)
    deltas;
  (* Random noise samples only a few points of the ±5%% ball; the
     certificate bounds the worst case over the whole ball. Aggregate the
     bound over a mix of trace regimes. *)
  Format.printf
    "@.certified worst-case CWND swing under any +/-5%% perturbation@.";
  Format.printf "(mean over five trace regimes, 50 steps each):@.";
  let swing_traces =
    [
      trace;
      Canopy_trace.Synthetic.triangle ~duration_ms:scale.trace_ms
        ~cycle_ms:5_000 ~floor_mbps:12. ~peak_mbps:96. ();
      Canopy_trace.Synthetic.ramp_drop ~duration_ms:scale.trace_ms
        ~cycle_ms:5_000 ~floor_mbps:12. ~peak_mbps:96. ();
      Canopy_trace.Lte.generate ~name:"lte-att" ~seed:101
        ~duration_ms:scale.trace_ms ();
      Canopy_trace.Lte.generate ~name:"lte-verizon" ~seed:202
        ~duration_ms:scale.trace_ms ();
    ]
  in
  List.iter
    (fun model ->
      let certs =
        List.concat_map
          (fun t ->
            component_distribution model (Property.robustness ()) 2. t 50)
          swing_traces
      in
      let worst (c : Certify.t) =
        Array.fold_left
          (fun acc comp ->
            let out = comp.Certify.output in
            Float.max acc
              (Float.max
                 (Float.abs (Canopy_absint.Interval.lo out))
                 (Float.abs (Canopy_absint.Interval.hi out))))
          0. c.components
      in
      let swings = Array.of_list (List.map worst certs) in
      Format.printf
        "  %-12s mean %5.1f%%  p95 %5.1f%%  max %5.1f%% of CWND@." model.name
        (100. *. Stats.mean swings)
        (100. *. Stats.percentile swings 95.)
        (100. *. Array.fold_left Float.max 0. swings))
    [ orca; canopy ]

(* ------------------------------------------------------------------ *)
(* Fig 2: bad states (sending-rate collapse) *)

let fig2 () =
  header "Figure 2: bad-state analysis (Orca vs Canopy, performance property)";
  let orca = orca () and canopy = canopy_perf () in
  let trace =
    Canopy_trace.Synthetic.ramp_drop ~duration_ms:scale.trace_ms
      ~cycle_ms:5_000 ~floor_mbps:12. ~peak_mbps:96. ()
  in
  let link = Eval.link ~min_rtt_ms ~bdp:2. trace in
  Format.printf "%-12s %-8s %-14s %-16s %-22s@." "model" "util%"
    "bad steps (%)" "max bad streak" "mean cwnd/suggestion";
  List.iter
    (fun model ->
      let res, steps =
        Eval.eval_policy ~name:model.name ~collect_steps:true
          ~policy:(`Mlp model.actor) ~history link
      in
      (* a step is "bad" when delivered throughput is below 40% of the
         trace's average capacity *)
      let capacity = Trace.avg_mbps trace in
      let bad =
        List.map (fun (s : Eval.step_record) -> s.thr_mbps < 0.4 *. capacity)
          steps
      in
      let nbad = List.length (List.filter Fun.id bad) in
      let max_streak =
        List.fold_left
          (fun (best, cur) b ->
            if b then (max best (cur + 1), cur + 1) else (best, 0))
          (0, 0) bad
        |> fst
      in
      let ratio =
        Stats.mean
          (Array.of_list
             (List.map
                (fun (s : Eval.step_record) ->
                  s.cwnd_enforced /. Float.max 1. s.cwnd_tcp)
                steps))
      in
      Format.printf "%-12s %7.1f %13.1f %16d %22.2f@." model.name
        (100. *. res.Eval.utilization)
        (100. *. float_of_int nbad /. float_of_int (List.length steps))
        max_streak ratio)
    [ orca; canopy ];
  (* The Fig.-2 mechanism in certificate terms: a controller can enter a
     bad state when, under small observed delays, its certificate still
     admits window decreases (small-delay components left uncertified). *)
  Format.printf
    "@.small-delay components provably increasing the window (higher = fewer \
     admissible bad states):@.";
  List.iter
    (fun model ->
      let certs =
        component_distribution model (Property.performance ()) 2. trace 100
      in
      let per_step =
        Array.of_list
          (List.map
             (fun (c : Certify.t) ->
               let comps =
                 Array.to_list c.components
                 |> List.filter (fun comp ->
                        comp.Certify.case = Property.Small_delay)
               in
               float_of_int
                 (List.length
                    (List.filter (fun comp -> comp.Certify.certified) comps))
               /. float_of_int (List.length comps))
             certs)
      in
      Format.printf "  %-12s %5.1f%% of components (mean over %d steps)@."
        model.name
        (100. *. Stats.mean per_step)
        (Array.length per_step))
    [ orca; canopy ]

(* ------------------------------------------------------------------ *)
(* Figs 5/6: FCC & FCS for the performance property *)

let fig5 () =
  header "Figure 5: FCC/FCS, performance property, shallow buffers (1 BDP)";
  print_fcc_fcs_table ~csv:"fig5"
    ~cases:[ Property.Large_delay; Property.Small_delay ]
    [ orca (); canopy_perf () ]
    (Property.performance ()) 1.

let fig6 () =
  header "Figure 6: FCC/FCS, performance property, large buffers (5 BDP)";
  print_fcc_fcs_table ~csv:"fig6"
    ~cases:[ Property.Large_delay; Property.Small_delay ]
    [ orca (); canopy_perf () ]
    (Property.performance ()) 5.

(* ------------------------------------------------------------------ *)
(* Fig 7: component output distribution over 50 steps *)

let fig7 () =
  header "Figure 7: per-component dCWND bounds over 50 steps (y = dCWND)";
  let orca = orca () and canopy = canopy_perf () in
  let traces =
    [
      Canopy_trace.Synthetic.step_fluctuation ~duration_ms:scale.trace_ms
        ~period_ms:2_000 ~low_mbps:12. ~high_mbps:48. ();
      Canopy_trace.Lte.generate ~name:"lte-att" ~seed:101
        ~duration_ms:scale.trace_ms ();
    ]
  in
  List.iteri
    (fun i trace ->
      Format.printf "@.-- trace %d: %s@." (i + 1) (Trace.name trace);
      Format.printf "%-12s %-12s %-22s %-14s %-18s@." "model" "case"
        "certified comps/step" "steps full" "mean out width";
      List.iter
        (fun model ->
          let certs =
            component_distribution model (Property.performance ()) 2. trace 50
          in
          List.iter
            (fun case ->
              let comps =
                List.concat_map
                  (fun (c : Certify.t) ->
                    Array.to_list c.components
                    |> List.filter (fun comp -> comp.Certify.case = case))
                  certs
              in
              let certified =
                List.length (List.filter (fun c -> c.Certify.certified) comps)
              in
              let full_steps =
                List.length
                  (List.filter
                     (fun (c : Certify.t) ->
                       Array.for_all
                         (fun comp ->
                           comp.Certify.case <> case || comp.certified)
                         c.components)
                     certs)
              in
              let width =
                Stats.mean
                  (Array.of_list
                     (List.map
                        (fun c -> Canopy_absint.Interval.width c.Certify.output)
                        comps))
              in
              Format.printf "%-12s %-12s %14.1f/%-5d %10d/%-3d %18.1f@."
                model.name
                (Property.case_name case)
                (float_of_int certified /. float_of_int (List.length certs))
                scale.eval_components full_steps (List.length certs) width)
            [ Property.Large_delay; Property.Small_delay ])
        [ orca; canopy ])
    traces

(* ------------------------------------------------------------------ *)
(* Fig 8: FCC & FCS for the robustness property *)

let fig8 () =
  header "Figure 8: FCC/FCS, robustness property, 2 BDP buffers";
  print_fcc_fcs_table ~csv:"fig8" ~cases:[ Property.Noise ]
    [ orca (); canopy_rob () ]
    (Property.robustness ()) 2.

(* ------------------------------------------------------------------ *)
(* Fig 9: CWNDCHANGE bounds over 50 steps *)

let fig9 () =
  header
    "Figure 9: per-component CWNDCHANGE bounds over 50 steps (target +/-0.01)";
  let orca = orca () and canopy = canopy_rob () in
  let traces =
    [
      Canopy_trace.Synthetic.triangle ~duration_ms:scale.trace_ms
        ~cycle_ms:5_000 ~floor_mbps:12. ~peak_mbps:96. ();
      Canopy_trace.Lte.generate ~name:"lte-verizon" ~seed:202
        ~duration_ms:scale.trace_ms ();
    ]
  in
  List.iteri
    (fun i trace ->
      Format.printf "@.-- trace %d: %s@." (i + 1) (Trace.name trace);
      Format.printf "%-12s %-22s %-14s %-18s@." "model" "certified comps/step"
        "steps full" "mean change width";
      List.iter
        (fun model ->
          let certs =
            component_distribution model (Property.robustness ()) 2. trace 50
          in
          let comps =
            List.concat_map
              (fun (c : Certify.t) -> Array.to_list c.components)
              certs
          in
          let certified =
            List.length (List.filter (fun c -> c.Certify.certified) comps)
          in
          let full_steps =
            List.length (List.filter (fun (c : Certify.t) -> c.fcs) certs)
          in
          let width =
            Stats.mean
              (Array.of_list
                 (List.map
                    (fun c -> Canopy_absint.Interval.width c.Certify.output)
                    comps))
          in
          Format.printf "%-12s %14.1f/%-5d %10d/%-3d %18.4f@." model.name
            (float_of_int certified /. float_of_int (List.length certs))
            scale.eval_components full_steps (List.length certs) width)
        [ orca; canopy ])
    traces

(* ------------------------------------------------------------------ *)
(* Figs 10/11: empirical performance vs baselines *)

let empirical_schemes () =
  let orca = orca () and canopy = canopy_perf () in
  [
    ("canopy", fun bdp ts -> policy_results canopy bdp ts);
    ("orca", fun bdp ts -> policy_results orca bdp ts);
    ("cubic", fun bdp ts -> tcp_results "cubic" Eval.cubic_scheme bdp ts);
    ("vegas", fun bdp ts -> tcp_results "vegas" Eval.vegas_scheme bdp ts);
    ("bbr", fun bdp ts -> tcp_results "bbr" Eval.bbr_scheme bdp ts);
    ("vivace", fun bdp ts -> tcp_results "vivace" Eval.vivace_scheme bdp ts);
  ]

let fig10 () =
  header "Figure 10: utilization & delays, shallow buffers (1 BDP)";
  print_empirical_table ~csv:"fig10" (empirical_schemes ()) 1.

let fig11 () =
  header "Figure 11: utilization & delays, large buffers (5 BDP)";
  print_empirical_table ~csv:"fig11" (empirical_schemes ()) 5.

(* ------------------------------------------------------------------ *)
(* Fig 12: metric changes under noise *)

let fig12 () =
  header "Figure 12: %% change of metrics under +/-5%% delay noise";
  let orca = orca () and canopy = canopy_rob () in
  let synth, real = by_category (traces ()) in
  Format.printf "%-12s %-10s %-12s %-12s %-10s@." "model" "category"
    "d-avg-delay%" "d-p95-delay%" "d-util%";
  List.iter
    (fun model ->
      List.iter
        (fun (cat_name, ts) ->
          let clean =
            Eval.mean_results cat_name (policy_results model 2. ts)
          in
          let noisy =
            Eval.mean_results cat_name
              (policy_results model 2. ~noise:(23, 0.05) ts)
          in
          let d = Eval.noise_delta ~clean ~noisy in
          Format.printf "%-12s %-10s %+11.1f %+11.1f %+9.1f@." model.name
            cat_name d.Eval.d_avg_qdelay_pct d.d_p95_qdelay_pct
            d.d_utilization_pct)
        [ ("synthetic", synth); ("real", real) ])
    [ orca; canopy ]

(* ------------------------------------------------------------------ *)
(* Fig 13: sensitivity to N and lambda *)

let fig13 () =
  header "Figure 13: sensitivity to N (components) and lambda";
  let configs =
    [
      ("N1-l0.25", 1, 0.25);
      ("N5-l0.25", 5, 0.25);
      ("N10-l0.25", 10, 0.25);
      ("N5-l0.50", 5, 0.5);
      ("N5-l0.75", 5, 0.75);
    ]
  in
  let synth, _ = by_category (traces ()) in
  Format.printf "%-12s %-8s %-12s %-12s@." "config" "util%" "avg-qdelay"
    "p95-qdelay";
  List.iter
    (fun (name, n, lambda) ->
      let model =
        get_model ~name:("sens-" ^ name) ~lambda
          ~property:(Property.performance ()) ~n_components:n
      in
      let m = Eval.mean_results "synthetic" (policy_results model 2. synth) in
      Format.printf "%-12s %7.1f %9.1fms %9.1fms@." name
        (100. *. m.Eval.utilization)
        m.Eval.avg_qdelay_ms m.Eval.p95_qdelay_ms)
    configs

(* ------------------------------------------------------------------ *)
(* Fig 14: training curves *)

let fig14 () =
  header "Figure 14: training curves (raw / verifier / overall reward)";
  let orca = orca () and canopy = canopy_perf () in
  List.iter
    (fun model ->
      Format.printf "@.-- %s@." model.name;
      Format.printf "%-6s %-8s %-8s %-10s %-8s@." "epoch" "raw" "verifier"
        "overall" "fcc";
      List.iter
        (fun (e : Trainer.epoch) ->
          Format.printf "%-6d %-8.3f %-8.3f %-10.3f %-8.3f@." e.Trainer.epoch
            e.raw_reward e.verifier_reward e.combined_reward e.fcc)
        model.curve;
      match (model.curve, List.rev model.curve) with
      | first :: _, last :: _ ->
          Format.printf "verifier reward %s over training (%.3f -> %.3f)@."
            (if last.Trainer.verifier_reward >= first.Trainer.verifier_reward
             then "rose"
             else "fell")
            first.Trainer.verifier_reward last.Trainer.verifier_reward
      | _ -> ())
    [ orca; canopy ]

(* ------------------------------------------------------------------ *)
(* Table 3: epoch rates (bechamel timing of the training-step kernels) *)

let table3 () =
  header "Table 3: epoch rates (training steps per second)";
  let make_step ~with_verifier ~n_components =
    (* One full training interaction: environment step + TD3 update,
       optionally preceded by certificate construction as in Canopy. *)
    let envs = train_pool () in
    let env = Canopy_orca.Agent_env.create (List.hd envs) in
    ignore (Canopy_orca.Agent_env.reset env);
    let rng = Canopy_util.Prng.create 7 in
    let agent =
      Canopy_rl.Td3.create ~rng
        {
          (Canopy_rl.Td3.default_config
             ~state_dim:(history * Canopy_orca.Observation.feature_count)
             ~action_dim:1)
          with
          hidden = 64;
          warmup = 64;
          batch_size = 64;
        }
    in
    let property = Property.performance () in
    fun () ->
      let s = Canopy_orca.Agent_env.state env in
      let a = Canopy_rl.Td3.select_action ~explore:true agent s in
      if with_verifier then
        ignore
          (Certify.certify ~actor:(Canopy_rl.Td3.actor agent) ~property
             ~n_components ~history ~state:s
             ~cwnd_tcp:(Canopy_orca.Agent_env.cwnd_tcp env)
             ~prev_cwnd:(Canopy_orca.Agent_env.prev_cwnd_enforced env) ());
      let res = Canopy_orca.Agent_env.step env ~action:a.(0) in
      Canopy_rl.Td3.observe agent
        {
          Canopy_rl.Replay_buffer.state = s;
          action = a;
          reward = res.Canopy_orca.Agent_env.raw_reward;
          next_state = res.Canopy_orca.Agent_env.state;
          terminal = false;
          truncated = res.Canopy_orca.Agent_env.finished;
        };
      Canopy_rl.Td3.update agent;
      if res.Canopy_orca.Agent_env.finished then
        ignore (Canopy_orca.Agent_env.reset env)
  in
  (* Verifier-only kernels at the paper's network width (hidden 256):
     the per-epoch complexity model of Section 6.6 is
     O(C3) = 2N · O(Verifier) + O(Orca), so the verifier latency must
     scale linearly with N. *)
  let make_verify ~n_components =
    let rng = Canopy_util.Prng.create 9 in
    let actor =
      Canopy_nn.Mlp.actor ~rng
        ~in_dim:(history * Canopy_orca.Observation.feature_count)
        ~hidden:256 ~out_dim:1
    in
    let property = Property.performance () in
    let state =
      Array.make (history * Canopy_orca.Observation.feature_count) 0.4
    in
    fun () ->
      ignore
        (Certify.certify ~actor ~property ~n_components ~history ~state
           ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  ignore
    (time_kernels ~stabilize:true ~group:"epoch" ~per:"run" ~limit:2000
       ~quota:1.0
       [
         ("step-orca", 1, make_step ~with_verifier:false ~n_components:1);
         ("step-c3-N1", 1, make_step ~with_verifier:true ~n_components:1);
         ("step-c3-N5", 1, make_step ~with_verifier:true ~n_components:5);
         ("step-c3-N10", 1, make_step ~with_verifier:true ~n_components:10);
         ("verify-N1", 1, make_verify ~n_components:1);
         ("verify-N5", 1, make_verify ~n_components:5);
         ("verify-N10", 1, make_verify ~n_components:10);
         ("verify-N50", 1, make_verify ~n_components:50);
       ]
      : (string * float) list);
  Format.printf
    "@.The step-* rows are full training interactions (simulated link +@.";
  Format.printf
    "TD3 update); the verify-* rows isolate certificate construction at@.";
  Format.printf
    "the paper's 256-wide actor, whose latency grows linearly with N as@.";
  Format.printf "in the Section-6.6 complexity model.@."

(* ------------------------------------------------------------------ *)
(* Ablation: verifier domain and subdivision strategy *)

let ablation () =
  header
    "Ablation: abstract domain and subdivision (DESIGN.md, Section-8 \
     directions)";
  let model = canopy_perf () in
  let trace =
    Canopy_trace.Synthetic.step_fluctuation ~duration_ms:scale.trace_ms
      ~period_ms:2_000 ~low_mbps:12. ~high_mbps:48. ()
  in
  (* Collect representative verification contexts from a live run. *)
  let link = Eval.link ~min_rtt_ms ~bdp:2. trace in
  let _, steps =
    Eval.eval_policy ~name:model.name ~collect_steps:true ~policy:(`Mlp model.actor)
      ~history link
  in
  let contexts =
    List.filteri (fun i _ -> i mod 2 = 0 && i < 200) steps
    |> List.map (fun (s : Eval.step_record) ->
           (s.cwnd_tcp, s.cwnd_enforced))
  in
  let state = Array.make (history * Canopy_orca.Observation.feature_count) 0.4 in
  let property = Property.performance () in
  let run_config name certify_fn =
    let t0 = Unix.gettimeofday () in
    let fccs =
      List.map
        (fun (cwnd_tcp, prev_cwnd) ->
          (certify_fn ~cwnd_tcp ~prev_cwnd : Certify.t).Certify.fcc)
        contexts
    in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "%-24s fcc=%6.3f   %8.1f ms total (%d contexts)@." name
      (Stats.mean (Array.of_list fccs))
      (1000. *. dt) (List.length contexts)
  in
  Format.printf "%-24s %-12s %-12s@." "verifier" "mean FCC" "wall time";
  run_config "box N=5" (fun ~cwnd_tcp ~prev_cwnd ->
      Certify.certify ~actor:model.actor ~property ~n_components:5 ~history
        ~state ~cwnd_tcp ~prev_cwnd ());
  run_config "box N=50" (fun ~cwnd_tcp ~prev_cwnd ->
      Certify.certify ~actor:model.actor ~property ~n_components:50 ~history
        ~state ~cwnd_tcp ~prev_cwnd ());
  run_config "zonotope N=5" (fun ~cwnd_tcp ~prev_cwnd ->
      Certify.certify ~domain:Certify.Zonotope_domain ~actor:model.actor
        ~property ~n_components:5 ~history ~state ~cwnd_tcp ~prev_cwnd ());
  run_config "zonotope N=50" (fun ~cwnd_tcp ~prev_cwnd ->
      Certify.certify ~domain:Certify.Zonotope_domain ~actor:model.actor
        ~property ~n_components:50 ~history ~state ~cwnd_tcp ~prev_cwnd ());
  run_config "adaptive 2->50" (fun ~cwnd_tcp ~prev_cwnd ->
      Certify.certify_adaptive ~actor:model.actor ~property
        ~initial_components:2 ~max_components:50 ~history ~state ~cwnd_tcp
        ~prev_cwnd ());
  Format.printf
    "@.Mean FCC compares how much of the precondition each verifier can@.";
  Format.printf
    "prove; subdivision and the zonotope product both tighten the plain@.";
  Format.printf "box domain at different compute costs.@.";
  (* Incompleteness analysis (Section 8): of the components the box
     verifier leaves uncertified, how many are REAL violations (a
     concrete counterexample exists) vs possibly spurious
     over-approximation? *)
  let real = ref 0 and open_ = ref 0 in
  let refute_rng = Canopy_util.Prng.create 2027 in
  List.iter
    (fun (cwnd_tcp, prev_cwnd) ->
      let cert =
        Certify.certify ~actor:model.actor ~property ~n_components:5 ~history
          ~state ~cwnd_tcp ~prev_cwnd ()
      in
      Array.iter
        (fun comp ->
          if not comp.Certify.certified then
            match
              Certify.refute ~rng:refute_rng ~actor:model.actor ~history
                ~state ~cwnd_tcp ~prev_cwnd comp
            with
            | Certify.Violation _ -> incr real
            | Certify.Unknown -> incr open_)
        cert.Certify.components)
    contexts;
  Format.printf
    "@.uncertified box-N=5 components: %d with a concrete counterexample \
     (real),@.%d left open (possibly spurious over-approximation).@."
    !real !open_

(* ------------------------------------------------------------------ *)
(* Figs 15-19: trace samples *)

let traces_fig () =
  header "Figures 15-19: trace families (capacity profile samples)";
  List.iter
    (fun trace ->
      Format.printf "%-26s |" (Trace.name trace);
      let dur = Trace.duration_ms trace in
      for i = 0 to 19 do
        let ms = i * dur / 20 in
        let frac =
          Trace.mbps_at trace ms /. Float.max 1. (Trace.max_mbps trace)
        in
        let c =
          if frac > 0.8 then '#'
          else if frac > 0.6 then '+'
          else if frac > 0.4 then '='
          else if frac > 0.2 then '-'
          else '.'
        in
        Format.print_char c
      done;
      Format.printf "| %a@." Trace.pp trace)
    (traces ())
