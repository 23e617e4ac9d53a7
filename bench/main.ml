(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) at a laptop scale, plus bechamel timing
   benchmarks for the training-step kernels (Table 3).

   Usage:
     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- fig5 fig10   # selected experiments
     CANOPY_BENCH_SCALE=full dune exec bench/main.exe

   Trained models are cached under _artifacts/ so repeated invocations
   skip training. *)

module Eval = Canopy.Eval
module Trainer = Canopy.Trainer
module Property = Canopy.Property
module Certify = Canopy.Certify
module Suite = Canopy_trace.Suite
module Trace = Canopy_trace.Trace
module Stats = Canopy_util.Stats

let artifacts_dir = "_artifacts"

(* ------------------------------------------------------------------ *)
(* Scale *)

type scale = {
  label : string;
  train_steps : int;
  trace_ms : int;
  eval_components : int;
  train_envs : int;
}

let quick =
  {
    label = "quick";
    train_steps = 2500;
    trace_ms = 10_000;
    eval_components = 50;
    train_envs = 6;
  }

let full =
  {
    label = "full";
    train_steps = 10_000;
    trace_ms = 30_000;
    eval_components = 50;
    train_envs = 8;
  }

let scale =
  match Sys.getenv_opt "CANOPY_BENCH_SCALE" with
  | Some "full" -> full
  | _ -> quick

let min_rtt_ms = 40
let history = 5

(* ------------------------------------------------------------------ *)
(* Models *)

let train_pool () =
  Trainer.env_pool ~n:scale.train_envs ~bw_range_mbps:(6., 96.)
    ~rtt_range_ms:(20, 80) ~duration_ms:8_000 ~seed:5 ()

let model_config ~lambda ~property ~n_components =
  Trainer.default_config ~seed:5 ~lambda ~property ~n_components
    ~total_steps:scale.train_steps ~envs:(train_pool ()) ()

type model = { name : string; actor : Canopy_nn.Mlp.t;
               curve : Trainer.epoch list }

let get_model ~name ~lambda ~property ~n_components =
  let tag = Printf.sprintf "%s-%s-%d" name scale.label scale.train_steps in
  Format.printf "[model %s: %s]@." name
    (if Sys.file_exists (Filename.concat artifacts_dir (tag ^ ".actor.ckpt"))
     then "cached"
     else "training...");
  Format.print_flush ();
  let actor, curve =
    Trainer.load_or_train ~cache_dir:artifacts_dir ~tag
      (model_config ~lambda ~property ~n_components)
  in
  { name; actor; curve }

let orca () =
  get_model ~name:"orca" ~lambda:0. ~property:(Property.performance ())
    ~n_components:5

let canopy_perf () =
  get_model ~name:"canopy-perf" ~lambda:0.25
    ~property:(Property.performance ()) ~n_components:5

let canopy_rob () =
  get_model ~name:"canopy-rob" ~lambda:0.25 ~property:(Property.robustness ())
    ~n_components:5

(* ------------------------------------------------------------------ *)
(* Helpers *)

let traces () = Suite.all ~duration_ms:scale.trace_ms ()

let by_category ts =
  ( List.filter (fun t -> Suite.category_of t = Suite.Synthetic) ts,
    List.filter (fun t -> Suite.category_of t = Suite.Real) ts )

let header fmt = Format.printf ("@.=== " ^^ fmt ^^ " ===@.")

(* CSV mirrors of the printed tables, for plotting. *)
let csv_write name ~columns rows =
  let dir = Filename.concat artifacts_dir "csv" in
  Canopy_util.Atomic_file.mkdir_p dir;
  let path = Filename.concat dir (name ^ ".csv") in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," columns);
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," row);
      Buffer.add_char buf '\n')
    rows;
  Canopy_util.Atomic_file.write path (Buffer.contents buf)

(* Machine-readable perf records ([BENCH_*.json]) are assembled in a
   buffer and land via the stage+rename path, so a bench interrupted
   mid-write can never leave a torn perf-history file at the repo root.
   Every repo-root BENCH_* snapshot additionally lands as a timestamped
   copy under [_artifacts/bench_history/], so successive runs build a
   local perf history instead of overwriting each other (smoke runs
   write to temp paths and are excluded). *)
let json_write path emit =
  let buf = Buffer.create 4096 in
  emit buf;
  let contents = Buffer.contents buf in
  Canopy_util.Atomic_file.write path contents;
  let base = Filename.basename path in
  if Filename.dirname path = "." && String.length base > 6
     && String.sub base 0 6 = "BENCH_"
  then begin
    let dir = Filename.concat artifacts_dir "bench_history" in
    Canopy_util.Atomic_file.mkdir_p dir;
    let tm = Unix.localtime (Unix.gettimeofday ()) in
    let stamp =
      Printf.sprintf "%04d%02d%02dT%02d%02d%02d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
    in
    let stem = Filename.remove_extension base in
    Canopy_util.Atomic_file.write
      (Filename.concat dir (Printf.sprintf "%s-%s.json" stem stamp))
      contents
  end

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
  (* Archived worst-case scenarios (PR 9's search artifacts) join the
     grid as a third category, so certified metrics are reported on the
     conditions that actually broke earlier policies, not only the
     fixed suite. *)
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
  let open Bechamel in
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
  let tests =
    [
      ("step-orca", make_step ~with_verifier:false ~n_components:1);
      ("step-c3-N1", make_step ~with_verifier:true ~n_components:1);
      ("step-c3-N5", make_step ~with_verifier:true ~n_components:5);
      ("step-c3-N10", make_step ~with_verifier:true ~n_components:10);
      ("verify-N1", make_verify ~n_components:1);
      ("verify-N5", make_verify ~n_components:5);
      ("verify-N10", make_verify ~n_components:10);
      ("verify-N50", make_verify ~n_components:50);
    ]
  in
  let grouped =
    Test.make_grouped ~name:"epoch"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Format.printf "%-18s %-14s %-14s@." "kernel" "ns/run" "runs/s";
  List.iter
    (fun (name, _) ->
      let key = "epoch/" ^ name in
      match Hashtbl.find_opt results key with
      | Some result -> (
          match Analyze.OLS.estimates result with
          | Some [ ns ] when ns > 0. ->
              Format.printf "%-18s %14.0f %14.1f@." name ns (1e9 /. ns)
          | _ -> Format.printf "%-18s (no estimate)@." name)
      | None -> Format.printf "%-18s (missing)@." name)
    tests;
  Format.printf
    "@.The step-* rows are full training interactions (simulated link +@.";
  Format.printf
    "TD3 update); the verify-* rows isolate certificate construction at@.";
  Format.printf
    "the paper's 256-wide actor, whose latency grows linearly with N as@.";
  Format.printf "in the Section-6.6 complexity model.@."

(* [--smoke]: tiny iteration counts for the perf-tracking experiments
   (kernels, certify) so dune's @check can exercise them end to end;
   their JSON records then go to temp files to keep checkouts clean. *)
let smoke_mode = ref false

(* The serving tree as [bench distill] fits it: harvest the actor over a
   stratified link set, then fit; returns the harvest, the tree and both
   wall times. *)
let distill_actor actor =
  let harvest_cfgs =
    (* one shared decision interval: the batched fleet harvest needs a
       homogeneous tick across flows *)
    Array.of_list
      (List.map
         (fun cfg -> { cfg with Canopy_orca.Agent_env.interval_ms = Some 40 })
         (Trainer.env_pool
            ~n:(if !smoke_mode then 2 else 6)
            ~duration_ms:(if !smoke_mode then 2_000 else 8_000)
            ~seed:7 ()))
  in
  let t0 = Unix.gettimeofday () in
  let xs, ys = Canopy_distill.Harvest.collect ~actor harvest_cfgs in
  let harvest_wall = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let tree =
    Canopy_distill.Fit.fit
      ~config:{ Canopy_distill.Fit.default_config with max_leaves = 64 }
      ~xs ~ys ()
  in
  (xs, ys, tree, harvest_wall, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* kernels: batched vs per-sample training kernels (BENCH_train_step) *)

let kernels () =
  header "kernels: batched vs per-sample training-step timings";
  let open Bechamel in
  let module Mat = Canopy_tensor.Mat in
  let module Td3 = Canopy_rl.Td3 in
  let state_dim = history * Canopy_orca.Observation.feature_count in
  let action_dim = 1 in
  let hidden = 64 in
  let rand_vec rng n =
    let v = Array.make n 0. in
    for i = 0 to n - 1 do
      v.(i) <- Canopy_util.Prng.uniform rng (-1.) 1.
    done;
    v
  in
  (* A TD3 agent past warmup over a synthetic replay buffer, so the
     measured closure is training updates only, no environment in the
     loop. One measured op covers one full policy period —
     [policy_delay] consecutive updates (critics every call, actor and
     target nets on the last) — so every sample does identical work
     whatever phase the agent is in and however many ops bechamel packs
     into it; the table and JSON report per-update times. *)
  let policy_period =
    (Td3.default_config ~state_dim ~action_dim).Td3.policy_delay
  in
  let make_update kernel ~batch_size =
    let rng = Canopy_util.Prng.create 11 in
    let agent =
      Td3.create ~rng
        {
          (Td3.default_config ~state_dim ~action_dim) with
          hidden;
          batch_size;
          warmup = batch_size;
          buffer_capacity = 4_096;
        }
    in
    let data = Canopy_util.Prng.create 13 in
    for _ = 1 to 1_024 do
      Td3.observe agent
        {
          Canopy_rl.Replay_buffer.state = rand_vec data state_dim;
          action = rand_vec data action_dim;
          reward = Canopy_util.Prng.uniform data (-1.) 1.;
          next_state = rand_vec data state_dim;
          terminal = false;
          truncated = false;
        }
    done;
    fun () ->
      for _ = 1 to policy_period do
        Td3.update ~kernel agent
      done
  in
  let make_actor_forward ~batch_size =
    let rng = Canopy_util.Prng.create 17 in
    let actor =
      Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden ~out_dim:action_dim
    in
    let states =
      Mat.init ~rows:batch_size ~cols:state_dim (fun i j ->
          Float.sin (float_of_int ((i * state_dim) + j)))
    in
    fun () -> ignore (Canopy_nn.Mlp.forward_batch actor states)
  in
  let make_critic_fit ~batch_size =
    let rng = Canopy_util.Prng.create 19 in
    let critic = Canopy_nn.Mlp.critic ~rng ~state_dim ~action_dim ~hidden in
    let opt = Canopy_nn.Optimizer.adam ~lr:1e-3 () in
    let dim = state_dim + action_dim in
    let inputs =
      Mat.init ~rows:batch_size ~cols:dim (fun i j ->
          Float.sin (float_of_int ((i * dim) + j)))
    in
    let targets = Array.init batch_size (fun i -> Float.cos (float_of_int i)) in
    let inv_n = 1. /. float_of_int batch_size in
    fun () ->
      Canopy_nn.Mlp.zero_grad critic;
      let preds, tape = Canopy_nn.Mlp.forward_train critic inputs in
      let dout =
        Mat.init ~rows:batch_size ~cols:1 (fun i _ ->
            2. *. (Mat.get preds i 0 -. targets.(i)) *. inv_n)
      in
      ignore (Canopy_nn.Mlp.backward critic tape dout);
      let params = Canopy_nn.Mlp.params critic in
      Canopy_nn.Optimizer.clip_gradients ~norm:10. params;
      Canopy_nn.Optimizer.step opt params
  in
  (* (name, batch size, units of work per closure call, closure). *)
  let tests =
    [
      ("actor_forward_b64", 64, 1, make_actor_forward ~batch_size:64);
      ("actor_forward_b256", 256, 1, make_actor_forward ~batch_size:256);
      ("critic_fit_b64", 64, 1, make_critic_fit ~batch_size:64);
      ("critic_fit_b256", 256, 1, make_critic_fit ~batch_size:256);
      ( "td3_update_batched_b64",
        64,
        policy_period,
        make_update Td3.Batched ~batch_size:64 );
      ( "td3_update_batched_b256",
        256,
        policy_period,
        make_update Td3.Batched ~batch_size:256 );
      ( "td3_update_per_sample_b64",
        64,
        policy_period,
        make_update Td3.Per_sample ~batch_size:64 );
      ( "td3_update_per_sample_b256",
        256,
        policy_period,
        make_update Td3.Per_sample ~batch_size:256 );
    ]
  in
  let grouped =
    Test.make_grouped ~name:"kernels"
      (List.map (fun (name, _, _, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  (* Stabilizing/compacting the GC before every sample (bechamel's
     default) perturbs the steady-state heap a training loop actually
     runs with and makes the update timings swing by tens of percent
     across runs; a sustained-throughput measurement wants the heap in
     steady state, so both are disabled here (for every kernel alike). *)
  let cfg =
    if !smoke_mode then
      Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ~stabilize:false
        ~compaction:false ()
    else
      Benchmark.cfg ~limit:4000 ~quota:(Time.second 2.0) ~stabilize:false
        ~compaction:false ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let ns_of name =
    match Hashtbl.find_opt results ("kernels/" ^ name) with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some [ ns ] when ns > 0. -> Some ns
        | _ -> None)
    | None -> None
  in
  Format.printf "%-26s %-14s %-14s@." "kernel" "ns/op" "ops/s";
  let measured =
    List.filter_map
      (fun (name, batch, per_op, _) ->
        match ns_of name with
        | Some ns ->
            let ns = ns /. float_of_int per_op in
            Format.printf "%-26s %14.0f %14.1f@." name ns (1e9 /. ns);
            Some (name, batch, ns)
        | None ->
            Format.printf "%-26s (no estimate)@." name;
            None)
      tests
  in
  let speedup b =
    let find n = List.find_opt (fun (name, _, _) -> name = n) measured in
    match
      ( find (Printf.sprintf "td3_update_per_sample_b%d" b),
        find (Printf.sprintf "td3_update_batched_b%d" b) )
    with
    | Some (_, _, ref_ns), Some (_, _, bat_ns) when bat_ns > 0. ->
        Some (ref_ns /. bat_ns)
    | _ -> None
  in
  let s64 = speedup 64 and s256 = speedup 256 in
  List.iter
    (fun (b, s) ->
      match s with
      | Some s ->
          Format.printf "TD3 update speedup, batched vs per-sample, b%d: %.2fx%s@."
            b s
            (if b = 64 && not !smoke_mode then
               if s >= 3. then "  (>= 3x: OK)" else "  (below 3x target!)"
             else "")
      | None -> ())
    [ (64, s64); (256, s256) ];
  (* Machine-readable record. Full runs overwrite BENCH_train_step.json
     in the working directory so the perf history is trackable; smoke
     runs (tiny iteration counts, e.g. under dune's @check) exercise the
     emitter but write to a temp file to keep checkouts clean. *)
  let json_path =
    if !smoke_mode then Filename.temp_file "canopy-bench-train-step" ".json"
    else "BENCH_train_step.json"
  in
  json_write json_path (fun buf ->
      Printf.bprintf buf
        "{\n  \"bench\": \"train_step\",\n  \"mode\": %S,\n  \"hidden\": %d,\n\
        \  \"state_dim\": %d,\n  \"action_dim\": %d,\n  \"entries\": [\n"
        (if !smoke_mode then "smoke" else "full")
        hidden state_dim action_dim;
      let last = List.length measured - 1 in
      List.iteri
        (fun i (name, batch, ns) ->
          Printf.bprintf buf
            "    {\"name\": %S, \"batch\": %d, \"ns_per_op\": %.1f}%s\n" name
            batch ns
            (if i = last then "" else ","))
        measured;
      Printf.bprintf buf "  ]";
      Option.iter
        (fun s -> Printf.bprintf buf ",\n  \"speedup_update_b64\": %.3f" s)
        s64;
      Option.iter
        (fun s -> Printf.bprintf buf ",\n  \"speedup_update_b256\": %.3f" s)
        s256;
      Printf.bprintf buf "\n}\n");
  Format.printf "wrote %s@." json_path

(* ------------------------------------------------------------------ *)
(* certify: batched IR engine vs per-slice reference, the evaluate-shaped
   MLP certificate, and the distilled tree's exact vs conservative
   certificates (BENCH_certify) *)

let certify_bench () =
  header
    "certify: batched verifier IR vs per-slice reference; exact vs \
     conservative tree";
  let open Bechamel in
  let state_dim = history * Canopy_orca.Observation.feature_count in
  let property = Property.performance () in
  let state = Array.make state_dim 0.4 in
  (* Certificate construction at the paper's verification width
     (hidden 256, as in Table 3) and at the training width the
     per-step certificate actually runs at inside the C3 loop
     (hidden 64, matching Td3.default_config). Each (shape, workload)
     point is measured under both engines; the fused-IR cache is warm
     after the first call of each kernel, which is exactly the regime
     certify runs in between gradient updates. *)
  let make_cert ~hidden ~engine ~domain ~n_components =
    let rng = Canopy_util.Prng.create 9 in
    let actor =
      Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden ~out_dim:1
    in
    fun () ->
      ignore
        (Certify.certify ~engine ~domain ~actor ~property ~n_components
           ~history ~state ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  let make_adaptive ~hidden ~engine =
    let rng = Canopy_util.Prng.create 9 in
    let actor =
      Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden ~out_dim:1
    in
    fun () ->
      ignore
        (Certify.certify_adaptive ~engine ~domain:Certify.Box_domain ~actor
           ~property ~initial_components:2 ~max_components:50 ~history ~state
           ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  let engines =
    [ ("batched", Certify.Batched); ("per_slice", Certify.Per_slice) ]
  in
  (* Certificates as evaluation builds them: 50 components per case on a
     harvested state, for the hidden-64 actor and for the tree [bench
     distill] fits from it. Full mode uses the trained actor; smoke
     distills an untrained one instead, so it needs no training run. *)
  let eval_actor =
    if !smoke_mode then
      Canopy_nn.Mlp.actor ~rng:(Canopy_util.Prng.create 9) ~in_dim:state_dim
        ~hidden:64 ~out_dim:1
    else (canopy_perf ()).actor
  in
  let xs, _, tree, _, _ = distill_actor eval_actor in
  let tree_state = Canopy_tensor.Mat.(row xs (rows xs / 2)) in
  let make_eval_cert () =
    ignore
      (Certify.certify ~actor:eval_actor ~property ~n_components:50 ~history
         ~state:tree_state ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  let make_tree_cert ~conservative () =
    ignore
      (Certify.certify_tree ~conservative ~tree ~property ~n_components:50
         ~history ~state:tree_state ~cwnd_tcp:100. ~prev_cwnd:90. ())
  in
  let tests =
    List.concat_map
      (fun (ename, engine) ->
        [
          ( Printf.sprintf "cert_box_N5_%s" ename,
            make_cert ~hidden:256 ~engine ~domain:Certify.Box_domain
              ~n_components:5 );
          ( Printf.sprintf "cert_box_N20_%s" ename,
            make_cert ~hidden:256 ~engine ~domain:Certify.Box_domain
              ~n_components:20 );
          ( Printf.sprintf "cert_zono_N5_%s" ename,
            make_cert ~hidden:256 ~engine ~domain:Certify.Zonotope_domain
              ~n_components:5 );
          ( Printf.sprintf "cert_adaptive_%s" ename,
            make_adaptive ~hidden:256 ~engine );
          ( Printf.sprintf "train_cert_N5_%s" ename,
            make_cert ~hidden:64 ~engine ~domain:Certify.Box_domain
              ~n_components:5 );
          ( Printf.sprintf "train_cert_N20_%s" ename,
            make_cert ~hidden:64 ~engine ~domain:Certify.Box_domain
              ~n_components:20 );
        ])
      engines
    @ [
        ("eval_cert_N50_batched", make_eval_cert);
        ("cert_tree_N50_exact", make_tree_cert ~conservative:false);
        ("cert_tree_N50_conservative", make_tree_cert ~conservative:true);
      ]
  in
  let grouped =
    Test.make_grouped ~name:"certify"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  (* Same steady-state-heap rationale as the kernels experiment. *)
  let cfg =
    if !smoke_mode then
      Benchmark.cfg ~limit:10 ~quota:(Time.second 0.05) ~stabilize:false
        ~compaction:false ()
    else
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~stabilize:false
        ~compaction:false ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let ns_of name =
    match Hashtbl.find_opt results ("certify/" ^ name) with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some [ ns ] when ns > 0. -> Some ns
        | _ -> None)
    | None -> None
  in
  Format.printf "%-26s %-14s %-14s@." "kernel" "ns/cert" "certs/s";
  let measured =
    List.filter_map
      (fun (name, _) ->
        match ns_of name with
        | Some ns ->
            Format.printf "%-26s %14.0f %14.1f@." name ns (1e9 /. ns);
            Some (name, ns)
        | None ->
            Format.printf "%-26s (no estimate)@." name;
            None)
      tests
  in
  let speedup base =
    match
      ( List.assoc_opt (base ^ "_per_slice") measured,
        List.assoc_opt (base ^ "_batched") measured )
    with
    | Some ref_ns, Some bat_ns when bat_ns > 0. -> Some (ref_ns /. bat_ns)
    | _ -> None
  in
  let bases =
    [
      "cert_box_N5"; "cert_box_N20"; "cert_zono_N5"; "cert_adaptive";
      "train_cert_N5"; "train_cert_N20";
    ]
  in
  let speedups = List.map (fun b -> (b, speedup b)) bases in
  List.iter
    (fun (b, s) ->
      match s with
      | Some s ->
          Format.printf "certify speedup, batched vs per-slice, %s: %.2fx%s@."
            b s
            (if b = "cert_box_N5" && not !smoke_mode then
               if s >= 3. then "  (>= 3x: OK)" else "  (below 3x target!)"
             else "")
      | None -> ())
    speedups;
  let json_path =
    if !smoke_mode then Filename.temp_file "canopy-bench-certify" ".json"
    else "BENCH_certify.json"
  in
  json_write json_path (fun buf ->
      Printf.bprintf buf
        "{\n  \"bench\": \"certify\",\n  \"mode\": %S,\n  \"hidden\": 256,\n\
        \  \"train_hidden\": 64,\n  \"state_dim\": %d,\n\
        \  \"tree_leaves\": %d,\n  \"tree_depth\": %d,\n  \"entries\": [\n"
        (if !smoke_mode then "smoke" else "full")
        state_dim
        (Canopy_distill.Tree.n_leaves tree)
        (Canopy_distill.Tree.depth tree);
      let last = List.length measured - 1 in
      List.iteri
        (fun i (name, ns) ->
          Printf.bprintf buf "    {\"name\": %S, \"ns_per_cert\": %.1f}%s\n"
            name ns
            (if i = last then "" else ","))
        measured;
      Printf.bprintf buf "  ]";
      List.iter
        (fun (b, s) ->
          Option.iter
            (fun s -> Printf.bprintf buf ",\n  \"speedup_%s\": %.3f" b s)
            s)
        speedups;
      Printf.bprintf buf "\n}\n");
  Format.printf "wrote %s@." json_path

(* ------------------------------------------------------------------ *)
(* par: deterministic domain pool, sequential vs parallel (BENCH_par) *)

let par_bench () =
  header "par: domain-pool parallel gemm / certify / eval vs sequential";
  let open Bechamel in
  let module Mat = Canopy_tensor.Mat in
  let module Pool = Canopy_util.Pool in
  let state_dim = history * Canopy_orca.Observation.feature_count in
  (* [recommended_domain_count] is the portable core-count probe OCaml
     gives us; it is the denominator every speedup claim below is
     conditioned on. On a host with [domains > num_cores] the extra
     domains time-slice one core, so the multi-domain rows measure
     oversubscription — they are recorded, but their speedup entries
     carry a [skipped_reason] instead of standing as a claim. *)
  let num_cores = Domain.recommended_domain_count () in
  let counts = List.sort_uniq Int.compare [ 1; 2; num_cores ] in
  let pools = List.map (fun d -> (d, Pool.create ~domains:d ())) counts in
  let pool_of d = List.assoc d pools in
  (* Creating the multi-domain pools above fired the one-shot grain
     calibration (if nothing pinned it first); capture what the GEMM
     dispatch will actually use before the probes pin tiny grains. *)
  let cal = Mat.calibration () in
  Format.printf
    "grain calibration (%s): min_flops=%d chunk_flops=%d \
     chunk_overhead_ns=%.0f flops_per_ns=%.2f@."
    cal.Mat.source cal.Mat.min_flops cal.Mat.chunk_flops
    cal.Mat.chunk_overhead_ns cal.Mat.flops_per_ns;
  if num_cores = 1 then
    Format.printf
      "single-core machine: parallel rows measure oversubscription and \
       their speedups are marked skipped.@.";
  (* -- bit-exactness probes: every parallel path must reproduce its
     1-domain result exactly on a 2-domain pool. The grain is forced down
     so even these small probe workloads actually chunk. *)
  let with_tiny_grain f =
    let min_flops, chunk_flops = Mat.parallel_grain () in
    Fun.protect
      ~finally:(fun () -> Mat.set_parallel_grain ~min_flops ~chunk_flops)
      (fun () ->
        Mat.set_parallel_grain ~min_flops:1 ~chunk_flops:1;
        f ())
  in
  let under d f =
    Pool.set_default (pool_of d);
    f ()
  in
  let probes_run = ref [] in
  let probe name got =
    probes_run := name :: !probes_run;
    if not got then failwith (Printf.sprintf "par: %s differs across domain counts" name);
    Format.printf "probe %-18s seq == par(2 domains): OK@." name
  in
  with_tiny_grain (fun () ->
      let rng = Canopy_util.Prng.create 33 in
      let mat rows cols =
        Mat.init ~rows ~cols (fun _ _ -> Canopy_util.Prng.uniform rng (-1.) 1.)
      in
      (* 37 rows trips the packed-panel nt path (>= 12 rows), so this
         probe pins the B-panel packing + 4x4 micro-kernel, not just the
         direct loops. *)
      let a = mat 37 29 and b = mat 41 29 in
      let bias = Array.init 41 (fun i -> Float.sin (float_of_int i)) in
      let run () =
        let dst = Mat.create ~rows:37 ~cols:41 in
        Mat.mat_mul_nt_bias_into ~dst a b bias;
        Array.map Int64.bits_of_float (Mat.raw dst)
      in
      probe "gemm_packed" (under 1 run = under 2 run);
      (* 300 shared dims span multiple 128-column k-blocks of the cache-
         blocked [mat_mul_into], so the store/reload accumulation across
         block boundaries is exercised too. *)
      let ab = mat 24 300 and bb = mat 300 17 in
      let run_blocked () =
        let dst = Mat.create ~rows:24 ~cols:17 in
        Mat.mat_mul_into ~dst ab bb;
        Array.map Int64.bits_of_float (Mat.raw dst)
      in
      probe "gemm_blocked" (under 1 run_blocked = under 2 run_blocked);
      (* Full TD3 gradient steps (sharded critic fits + actor conduit,
         policy delay 2 so the second update moves the actor and the
         targets): every learned parameter of all six networks must come
         out bit-identical whatever the pool width. *)
      let module Td3 = Canopy_rl.Td3 in
      let arng = Canopy_util.Prng.create 51 in
      let tcfg =
        {
          (Td3.default_config ~state_dim:4 ~action_dim:2) with
          Td3.hidden = 32;
          batch_size = 64;
          warmup = 64;
          buffer_capacity = 256;
        }
      in
      let agent = Td3.create ~rng:arng tcfg in
      let data = Canopy_util.Prng.create 52 in
      let rv n =
        Array.init n (fun _ -> Canopy_util.Prng.uniform data (-1.) 1.)
      in
      for _ = 1 to 256 do
        Td3.observe agent
          {
            Canopy_rl.Replay_buffer.state = rv 4;
            action = rv 2;
            reward = Canopy_util.Prng.uniform data (-1.) 1.;
            next_state = rv 4;
            terminal = false;
            truncated = false;
          }
      done;
      let snap0 = Td3.snapshot agent in
      let run_td3 d =
        Td3.restore agent snap0;
        under d (fun () ->
            Td3.update ~kernel:Td3.Batched agent;
            Td3.update ~kernel:Td3.Batched agent);
        let snap = Td3.snapshot agent in
        List.concat_map
          (fun (_, net) ->
            List.map
              (fun (v, _) -> Array.map Int64.bits_of_float v)
              (Canopy_nn.Mlp.params net))
          snap.Td3.nets
      in
      probe "td3_update" (run_td3 1 = run_td3 2);
      let prng = Canopy_util.Prng.create 9 in
      let actor =
        Canopy_nn.Mlp.actor ~rng:prng ~in_dim:state_dim ~hidden:32 ~out_dim:1
      in
      let state = Array.make state_dim 0.4 in
      let property = Property.performance () in
      let cert () =
        Certify.certify ~engine:Certify.Batched ~domain:Certify.Box_domain
          ~actor ~property ~n_components:50 ~history ~state ~cwnd_tcp:100.
          ~prev_cwnd:90. ()
      in
      probe "certify" (under 1 cert = under 2 cert);
      let links =
        List.map (Eval.link ~min_rtt_ms)
          (List.filteri (fun i _ -> i < 2) (Suite.all ~duration_ms:2_000 ()))
      in
      let tasks =
        List.map
          (fun l () -> Eval.eval_tcp ~name:"cubic" Eval.cubic_scheme l)
          links
      in
      let sweep () = Eval.run_tasks tasks in
      probe "eval_sweep" (under 1 sweep = under 2 sweep));
  (* Probe coverage is part of the contract: a refactor that silently
     stops routing a workload through its parallel path would otherwise
     pass the equality probes vacuously. [--smoke] runs exactly this. *)
  List.iter
    (fun name ->
      if not (List.mem name !probes_run) then
        failwith (Printf.sprintf "par: bit-equality probe %s did not run" name))
    [ "gemm_packed"; "gemm_blocked"; "td3_update"; "certify"; "eval_sweep" ];
  (* -- timings: each workload at every domain count; d=1 is the
     sequential reference row. *)
  let gemm_work =
    let rng = Canopy_util.Prng.create 21 in
    let dim = 256 in
    let mat rows cols =
      Mat.init ~rows ~cols (fun _ _ -> Canopy_util.Prng.uniform rng (-1.) 1.)
    in
    let a = mat dim dim and b = mat dim dim in
    let bias = Array.init dim (fun i -> Float.cos (float_of_int i)) in
    let dst = Mat.create ~rows:dim ~cols:dim in
    fun () -> Mat.mat_mul_nt_bias_into ~dst a b bias
  in
  let certify_work =
    let rng = Canopy_util.Prng.create 9 in
    let actor =
      Canopy_nn.Mlp.actor ~rng ~in_dim:state_dim ~hidden:256 ~out_dim:1
    in
    let state = Array.make state_dim 0.4 in
    let property = Property.performance () in
    fun () ->
      ignore
        (Certify.certify ~engine:Certify.Batched ~domain:Certify.Box_domain
           ~actor ~property ~n_components:50 ~history ~state ~cwnd_tcp:100.
           ~prev_cwnd:90. ())
  in
  let eval_work =
    let duration_ms = if !smoke_mode then 2_000 else scale.trace_ms in
    let links =
      List.map (Eval.link ~min_rtt_ms)
        (List.filteri (fun i _ -> i < 6) (Suite.all ~duration_ms ()))
    in
    let tasks =
      List.map
        (fun l () -> Eval.eval_tcp ~name:"cubic" Eval.cubic_scheme l)
        links
    in
    fun () -> ignore (Eval.run_tasks tasks)
  in
  let workloads =
    [ ("gemm", gemm_work); ("certify", certify_work); ("eval_sweep", eval_work) ]
  in
  let tests =
    List.concat_map
      (fun (wname, work) ->
        List.map
          (fun (d, pool) ->
            ( Printf.sprintf "%s_d%d" wname d,
              wname,
              d,
              fun () ->
                (* Selecting the pool inside the closure keeps each
                   bechamel sample self-contained; the set_default cost
                   is a mutex flip, noise against ms-scale workloads. *)
                Pool.set_default pool;
                work () ))
          pools)
      workloads
  in
  let grouped =
    Test.make_grouped ~name:"par"
      (List.map (fun (name, _, _, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  (* Same steady-state-heap rationale as the kernels experiment. *)
  let cfg =
    if !smoke_mode then
      Benchmark.cfg ~limit:6 ~quota:(Time.second 0.05) ~stabilize:false
        ~compaction:false ()
    else
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.5) ~stabilize:false
        ~compaction:false ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let ns_of name =
    match Hashtbl.find_opt results ("par/" ^ name) with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some [ ns ] when ns > 0. -> Some ns
        | _ -> None)
    | None -> None
  in
  Format.printf "%-22s %-14s %-14s@." "workload" "ns/op" "ops/s";
  let measured =
    List.filter_map
      (fun (name, wname, d, _) ->
        match ns_of name with
        | Some ns ->
            Format.printf "%-22s %14.0f %14.1f@." name ns (1e9 /. ns);
            Some (name, wname, d, ns)
        | None ->
            Format.printf "%-22s (no estimate)@." name;
            None)
      tests
  in
  let par_counts =
    List.filter_map (fun (d, _) -> if d > 1 then Some d else None) pools
  in
  let speedup_at wname d =
    let find d =
      List.find_map
        (fun (_, w, d', ns) -> if w = wname && d' = d then Some ns else None)
        measured
    in
    match (find 1, find d) with
    | Some seq_ns, Some par_ns when par_ns > 0. -> Some (seq_ns /. par_ns)
    | _ -> None
  in
  (* A ratio taken with more domains than cores measures the scheduler's
     time-slicing, not parallelism: record it, but mark it skipped so it
     never reads as a speedup claim. *)
  let skipped_reason d =
    if d > num_cores then
      Some
        (Printf.sprintf
           "%d domains oversubscribe %d core%s: ratio measures \
            time-slicing, not parallel speedup"
           d num_cores
           (if num_cores = 1 then "" else "s"))
    else None
  in
  let speedups =
    List.concat_map
      (fun (w, _) ->
        List.filter_map
          (fun d ->
            Option.map (fun s -> (w, d, s, skipped_reason d)) (speedup_at w d))
          par_counts)
      workloads
  in
  List.iter
    (fun (w, d, s, skip) ->
      Format.printf "par speedup, %d domains vs sequential, %s: %.2fx%s@." d w
        s
        (match skip with None -> "" | Some _ -> "  [skipped: oversubscribed]"))
    speedups;
  let json_path =
    if !smoke_mode then Filename.temp_file "canopy-bench-par" ".json"
    else "BENCH_par.json"
  in
  json_write json_path (fun buf ->
      Printf.bprintf buf
        "{\n  \"bench\": \"par\",\n  \"mode\": %S,\n\
        \  \"num_cores\": %d,\n  \"domain_counts\": [%s],\n\
        \  \"calibration\": {\"source\": %S, \"min_flops\": %d, \
         \"chunk_flops\": %d, \"chunk_overhead_ns\": %.1f, \
         \"flops_per_ns\": %.3f},\n\
        \  \"entries\": [\n"
        (if !smoke_mode then "smoke" else "full")
        num_cores
        (String.concat ", " (List.map (fun (d, _) -> string_of_int d) pools))
        cal.Mat.source cal.Mat.min_flops cal.Mat.chunk_flops
        cal.Mat.chunk_overhead_ns cal.Mat.flops_per_ns;
      let last = List.length measured - 1 in
      List.iteri
        (fun i (name, wname, d, ns) ->
          Printf.bprintf buf
            "    {\"name\": %S, \"workload\": %S, \"domains\": %d, \
             \"ns_per_op\": %.1f}%s\n"
            name wname d ns
            (if i = last then "" else ","))
        measured;
      Printf.bprintf buf "  ],\n  \"speedups\": [\n";
      let last = List.length speedups - 1 in
      List.iteri
        (fun i (w, d, s, skip) ->
          Printf.bprintf buf
            "    {\"workload\": %S, \"domains\": %d, \"ratio\": %.3f%s}%s\n" w
            d s
            (match skip with
            | None -> ""
            | Some reason -> Printf.sprintf ", \"skipped_reason\": %S" reason)
            (if i = last then "" else ","))
        speedups;
      Printf.bprintf buf "  ]\n}\n");
  Format.printf "wrote %s@." json_path;
  (* Leave the 1-domain pool as the ambient default (at_exit reaps it)
     and reap the sized ones now. *)
  Pool.set_default (pool_of 1);
  List.iter (fun (d, p) -> if d <> 1 then Pool.shutdown p) pools

(* ------------------------------------------------------------------ *)
(* Fleet: vectorized simulator throughput + batched policy serving *)

let fleet_bench () =
  header "fleet: vectorized links, one policy GEMM per decision tick";
  let module Mat = Canopy_tensor.Mat in
  let module Pool = Canopy_util.Pool in
  let module Mlp = Canopy_nn.Mlp in
  let module Agent_env = Canopy_orca.Agent_env in
  let module Fleet_env = Canopy_orca.Fleet_env in
  let module Fleet_eval = Canopy.Fleet_eval in
  let num_cores = Domain.recommended_domain_count () in
  let counts = List.sort_uniq Int.compare [ 1; 2; num_cores ] in
  let pools = List.map (fun d -> (d, Pool.create ~domains:d ())) counts in
  let pool_of d = List.assoc d pools in
  let under d f =
    Pool.set_default (pool_of d);
    f ()
  in
  let state_dim = history * Canopy_orca.Observation.feature_count in
  let actor =
    Mlp.actor
      ~rng:(Canopy_util.Prng.create 3)
      ~in_dim:state_dim ~hidden:64 ~out_dim:1
  in
  let clamp = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1. in
  (* One episode config per flow: capacities staggered across the fleet
     so flows genuinely diverge, optional impairments to exercise the
     per-flow PRNG and the jittered-return resort path. *)
  let mk_cfg ?(interval = 40) ?(buffer = 160)
      ?(impair = Canopy_netsim.Env.no_impairments) ~duration_ms i =
    let mbps = 12. +. (6. *. float_of_int (i mod 7)) in
    let trace =
      Trace.constant
        ~name:(Printf.sprintf "fleet-c%02d" (i mod 7))
        ~duration_ms ~mbps
    in
    {
      (Agent_env.default_config ~trace ~min_rtt_ms ~buffer_pkts:buffer
         ~duration_ms)
      with
      Agent_env.interval_ms = Some interval;
      impairments = impair;
    }
  in
  (* -- bit-exactness probes ---------------------------------------- *)
  let probes_run = ref [] in
  let probe name got =
    probes_run := name :: !probes_run;
    if not got then
      failwith (Printf.sprintf "fleet: %s trajectories differ" name);
    Format.printf "probe %-16s OK@." name
  in
  (* A full-episode trajectory fingerprint: per decision tick the bits
     of every flow's state row, action, reward and enforced window.
     Anything the sim or the serving path computes differently shows up
     here. *)
  let fleet_trajectory cfgs =
    let env = Fleet_env.create cfgs in
    let n = Fleet_env.flows env in
    let x = Mat.create ~rows:n ~cols:(Fleet_env.state_dim env) in
    let y = Mat.create_uninit ~rows:n ~cols:1 in
    let actions = Array.make n 0. in
    let bits = ref [] in
    let push a = bits := Array.map Int64.bits_of_float a :: !bits in
    let fin = ref false in
    while not !fin do
      Fleet_env.write_states env ~dst:x;
      push (Array.copy (Mat.raw x));
      Mlp.forward_eval_into ~dst:y actor x;
      for i = 0 to n - 1 do
        actions.(i) <- clamp (Mat.raw y).(i)
      done;
      let r = Fleet_env.step env ~actions in
      push actions;
      push r.Fleet_env.rewards;
      push r.Fleet_env.cwnd_enforced;
      fin := r.Fleet_env.finished
    done;
    List.rev !bits
  in
  let scalar_trajectory cfgs =
    let envs = Array.map Agent_env.create cfgs in
    let n = Array.length envs in
    let bits = ref [] in
    let push a = bits := Array.map Int64.bits_of_float a :: !bits in
    let fin = ref false in
    while not !fin do
      let states =
        Array.concat (Array.to_list (Array.map Agent_env.state envs))
      in
      push states;
      let steps =
        Array.mapi
          (fun i env ->
            let action = clamp (Mlp.forward actor (Agent_env.state envs.(i))).(0) in
            (action, Agent_env.step env ~action))
          envs
      in
      push (Array.map fst steps);
      push (Array.map (fun (_, r) -> r.Agent_env.raw_reward) steps);
      push (Array.map (fun (_, r) -> r.Agent_env.cwnd_enforced) steps);
      fin := (snd steps.(n - 1)).Agent_env.finished
    done;
    List.rev !bits
  in
  (* 6 flows, one with wireless-style impairments (loss + jitter +
     reordering) so the per-flow PRNG stream, the jittered-return-path
     resort and the reorder hold-back are all in the comparison: the
     6-flow fleet must equal 6 one-flow fleets, i.e. flows are
     independent. *)
  let probe_cfgs =
    Array.init 6 (fun i ->
        let impair =
          if i = 4 then
            {
              Canopy_netsim.Env.random_loss = 0.01;
              ack_jitter_ms = 2;
              reorder_prob = 0.05;
              reorder_ms = 6;
              seed = 7;
            }
          else Canopy_netsim.Env.no_impairments
        in
        mk_cfg ~impair ~duration_ms:800 i)
  in
  probe "fleet_vs_scalar"
    (under 1 (fun () -> fleet_trajectory probe_cfgs)
    = scalar_trajectory probe_cfgs);
  (* 64 flows at a 300 ms cadence put each advancement call at
     64 × 300 = 19 200 flow·ms, above the fleet's parallel threshold
     (16 384), so the multi-domain runs genuinely chunk. *)
  let domain_cfgs =
    Array.init 64 (fun i ->
        let impair =
          if i mod 9 = 0 then
            {
              Canopy_netsim.Env.random_loss = 0.005;
              ack_jitter_ms = 1;
              reorder_prob = 0.02;
              reorder_ms = 4;
              seed = 100 + i;
            }
          else Canopy_netsim.Env.no_impairments
        in
        mk_cfg ~interval:300 ~impair ~duration_ms:1_200 i)
  in
  let ref_traj = under 1 (fun () -> fleet_trajectory domain_cfgs) in
  probe "fleet_domains"
    (List.for_all
       (fun d -> under d (fun () -> fleet_trajectory domain_cfgs) = ref_traj)
       (List.filter (fun d -> d <> 1) counts));
  List.iter
    (fun name ->
      if not (List.mem name !probes_run) then
        failwith (Printf.sprintf "fleet: probe %s never ran" name))
    [ "fleet_vs_scalar"; "fleet_domains" ];
  (* -- throughput -------------------------------------------------- *)
  (* Long fleet episodes are timed wall-clock (as [ablation] does)
     rather than via bechamel: one run is seconds at the large sizes
     and the quantity of interest is aggregate flow·ms/s, not ns/op. *)
  let sizes =
    if !smoke_mode then [ (32, 400) ]
    else [ (1_000, 1_600); (10_000, 800); (100_000, 400) ]
  in
  let time_fleet ~flows:n ~duration_ms d =
    under d (fun () ->
        let cfgs =
          Array.init n
            (mk_cfg ~buffer:(if n >= 100_000 then 64 else 160) ~duration_ms)
        in
        let env = Fleet_env.create cfgs in
        let t0 = Unix.gettimeofday () in
        let r = Fleet_eval.serve ~policy:(`Mlp actor) env in
        let wall = Unix.gettimeofday () -. t0 in
        (r, wall))
  in
  let entries =
    List.concat_map
      (fun (n, duration_ms) ->
        List.map
          (fun d ->
            let r, wall = time_fleet ~flows:n ~duration_ms d in
            let flow_ms = float_of_int (n * duration_ms) in
            let decisions = float_of_int (n * r.Fleet_eval.decision_ticks) in
            Format.printf
              "fleet %6d flows, %4d ms, %d domain%s: %.2fs wall, %.2e \
               flow·ms/s, %.2e decisions/s (jain %.3f, util %.1f%%)@."
              n duration_ms d
              (if d = 1 then " " else "s")
              wall (flow_ms /. wall) (decisions /. wall)
              r.Fleet_eval.jain
              (100. *. r.Fleet_eval.mean_utilization);
            (n, duration_ms, d, r.Fleet_eval.decision_ticks, wall,
             flow_ms /. wall, decisions /. wall))
          counts)
      sizes
  in
  (* Scalar baseline at the smallest size: the same episodes as N
     one-flow fleets, stepped one [Agent_env] view at a time with
     per-flow [Mlp.forward] inference — what the fleet's batching
     replaces. *)
  let base_n, base_dur = List.hd sizes in
  let scalar_wall =
    let cfgs = Array.init base_n (mk_cfg ~duration_ms:base_dur) in
    let t0 = Unix.gettimeofday () in
    ignore (scalar_trajectory cfgs : Int64.t array list);
    Unix.gettimeofday () -. t0
  in
  let fleet_wall_1d =
    match
      List.find_opt (fun (n, dur, d, _, _, _, _) ->
          n = base_n && dur = base_dur && d = 1)
        entries
    with
    | Some (_, _, _, _, w, _, _) -> w
    | None -> nan
  in
  let speedup = scalar_wall /. fleet_wall_1d in
  Format.printf
    "scalar baseline, %d flows: %.2fs wall — fleet(1 domain) speedup %.2fx@."
    base_n scalar_wall speedup;
  let json_path =
    if !smoke_mode then Filename.temp_file "canopy-bench-fleet" ".json"
    else "BENCH_fleet.json"
  in
  json_write json_path (fun buf ->
      Printf.bprintf buf
        "{\n  \"bench\": \"fleet\",\n  \"mode\": %S,\n\
        \  \"num_cores\": %d,\n  \"domain_counts\": [%s],\n\
        \  \"probes\": [%s],\n  \"entries\": [\n"
        (if !smoke_mode then "smoke" else "full")
        num_cores
        (String.concat ", " (List.map string_of_int counts))
        (String.concat ", "
           (List.rev_map (fun p -> Printf.sprintf "%S" p) !probes_run));
      let last = List.length entries - 1 in
      List.iteri
        (fun i (n, dur, d, ticks, wall, fps, dps) ->
          Printf.bprintf buf
            "    {\"flows\": %d, \"duration_ms\": %d, \"domains\": %d, \
             \"decision_ticks\": %d, \"wall_s\": %.3f, \
             \"flow_ms_per_sec\": %.1f, \"decisions_per_sec\": %.1f%s}%s\n"
            n dur d ticks wall fps dps
            (match
               if d > num_cores then
                 Some
                   (Printf.sprintf
                      "%d domains oversubscribe %d core%s: measures \
                       time-slicing, not parallel speedup"
                      d num_cores
                      (if num_cores = 1 then "" else "s"))
               else None
             with
            | None -> ""
            | Some reason -> Printf.sprintf ", \"skipped_reason\": %S" reason)
            (if i = last then "" else ","))
        entries;
      Printf.bprintf buf
        "  ],\n\
        \  \"scalar_baseline\": {\"flows\": %d, \"duration_ms\": %d, \
         \"wall_s\": %.3f, \"fleet_wall_s\": %.3f, \"speedup\": %.3f}\n}\n"
        base_n base_dur scalar_wall fleet_wall_1d speedup);
  Format.printf "wrote %s@." json_path;
  Pool.set_default (pool_of 1);
  List.iter (fun (d, p) -> if d <> 1 then Pool.shutdown p) pools

(* ------------------------------------------------------------------ *)
(* distill: piecewise-affine tree serving vs the MLP actor
   (BENCH_distill) *)

let distill_bench () =
  header "distill: piecewise-affine tree serving vs MLP actor";
  let open Bechamel in
  let module Mat = Canopy_tensor.Mat in
  let module Pool = Canopy_util.Pool in
  let module Tree = Canopy_distill.Tree in
  let module Fit = Canopy_distill.Fit in
  let model = canopy_perf () in
  let actor = model.actor in
  let num_cores = Domain.recommended_domain_count () in
  (* -- distillation cost: both walls are part of the record. *)
  let xs, ys, tree, harvest_wall, fit_wall = distill_actor actor in
  let fidelity = Fit.mse tree ~xs ~ys in
  Format.printf
    "distilled %d states -> %d leaves (depth %d) in %.2fs harvest + %.2fs \
     fit; fidelity MSE %.3e@."
    (Array.length ys) (Tree.n_leaves tree) (Tree.depth tree) harvest_wall
    fit_wall fidelity;
  let d = Tree.in_dim tree in
  (* -- bit-exactness probe for the pool-parallel tree serving: the
     batched path must reproduce its 1-domain result exactly on a
     2-domain pool (tiny grain so the probe workload actually chunks).
     Coverage is asserted — [--smoke] runs exactly this. *)
  let saved_pool = Pool.default () in
  let probes_run = ref 0 in
  let counts = List.sort_uniq Int.compare [ 1; 2; num_cores ] in
  let pools = List.map (fun dn -> (dn, Pool.create ~domains:dn ())) counts in
  (let min_flops, chunk_flops = Mat.parallel_grain () in
   Fun.protect
     ~finally:(fun () -> Mat.set_parallel_grain ~min_flops ~chunk_flops)
     (fun () ->
       Mat.set_parallel_grain ~min_flops:1 ~chunk_flops:1;
       let probe_xs =
         Mat.init ~rows:2_048 ~cols:d (fun i j ->
             Float.sin (float_of_int ((i * d) + j)))
       in
       let serve dn =
         Pool.set_default (List.assoc dn pools);
         let dst = Mat.create ~rows:2_048 ~cols:1 in
         Tree.predict_rows_into ~dst tree probe_xs;
         Array.map Int64.bits_of_float (Mat.raw dst)
       in
       let reference = serve 1 in
       List.iter
         (fun dn ->
           if dn <> 1 then begin
             if serve dn <> reference then
               failwith
                 (Printf.sprintf
                    "distill: tree serving differs at %d domains" dn);
             incr probes_run;
             Format.printf
               "probe tree_serve        seq == par(%d domains): OK@." dn
           end)
         counts));
  Pool.set_default saved_pool;
  if !probes_run = 0 then
    failwith "distill: no tree-serving bit-equality probe ran";
  (* -- ns/decision: both policies through the one serving entry point
     ([Policy.predict_rows_into], exactly the scalar-eval and fleet
     paths) at small and large batches. *)
  let batches = if !smoke_mode then [ 1; 1_000 ] else [ 1; 1_000; 100_000 ] in
  let make_serve policy ~batch =
    let xsb =
      Mat.init ~rows:batch ~cols:d (fun i j ->
          Float.sin (float_of_int ((i * d) + j)))
    in
    let dst = Mat.create ~rows:batch ~cols:1 in
    fun () -> Canopy.Policy.predict_rows_into ~dst policy xsb
  in
  let tests =
    List.concat_map
      (fun b ->
        [
          (Printf.sprintf "mlp_b%d" b, "mlp", b, make_serve (`Mlp actor) ~batch:b);
          ( Printf.sprintf "tree_b%d" b,
            "tree",
            b,
            make_serve (`Tree tree) ~batch:b );
        ])
      batches
  in
  let grouped =
    Test.make_grouped ~name:"distill"
      (List.map (fun (name, _, _, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  let cfg =
    if !smoke_mode then
      Benchmark.cfg ~limit:25 ~quota:(Time.second 0.05) ~stabilize:false
        ~compaction:false ()
    else
      Benchmark.cfg ~limit:4000 ~quota:(Time.second 2.0) ~stabilize:false
        ~compaction:false ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let ns_of name =
    match Hashtbl.find_opt results ("distill/" ^ name) with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some [ ns ] when ns > 0. -> Some ns
        | _ -> None)
    | None -> None
  in
  Format.printf "%-16s %-8s %-16s %-16s@." "policy" "batch" "ns/decision"
    "decisions/s";
  let measured =
    List.filter_map
      (fun (name, kind, batch, _) ->
        match ns_of name with
        | Some ns ->
            let ns = ns /. float_of_int batch in
            Format.printf "%-16s %-8d %16.1f %16.0f@." kind batch ns (1e9 /. ns);
            Some (name, kind, batch, ns)
        | None ->
            Format.printf "%-16s %-8d (no estimate)@." kind batch;
            None)
      tests
  in
  let speedup b =
    let find k =
      List.find_opt (fun (_, kind, batch, _) -> kind = k && batch = b) measured
    in
    match (find "mlp", find "tree") with
    | Some (_, _, _, mlp_ns), Some (_, _, _, tree_ns) when tree_ns > 0. ->
        Some (mlp_ns /. tree_ns)
    | _ -> None
  in
  let speedups = List.filter_map (fun b -> Option.map (fun s -> (b, s)) (speedup b)) batches in
  List.iter
    (fun (b, s) ->
      let target = if b = 1 then Some 10. else if b = 100_000 then Some 2. else None in
      Format.printf "tree vs mlp speedup, batch %d: %.2fx%s@." b s
        (match target with
        | Some t when not !smoke_mode ->
            if s >= t then Printf.sprintf "  (>= %.0fx: OK)" t
            else Printf.sprintf "  (below %.0fx target!)" t
        | _ -> ""))
    speedups;
  (* -- utility delta: both policies over the evaluation suite, mean
     utilization per category (the fidelity-in-deployment check; smoke
     uses a 2-trace subset). *)
  let suite_traces =
    let all = traces () in
    if !smoke_mode then List.filteri (fun i _ -> i < 2) all else all
  in
  let eval_of policy trace =
    let link = Eval.link ~min_rtt_ms ~bdp:2. trace in
    fst (Eval.eval_policy ~policy ~history link)
  in
  let utility =
    List.filter_map
      (fun (cat_name, cat) ->
        let ts =
          List.filter (fun t -> Suite.category_of t = cat) suite_traces
        in
        if ts = [] then None
        else begin
          let mean policy =
            (Eval.mean_results cat_name (List.map (eval_of policy) ts))
              .Eval.utilization
          in
          let mlp_u = mean (`Mlp actor) and tree_u = mean (`Tree tree) in
          let delta_pct =
            if Float.abs mlp_u < 1e-9 then 0.
            else 100. *. (tree_u -. mlp_u) /. mlp_u
          in
          Format.printf
            "utility %-10s mlp=%5.1f%% tree=%5.1f%% delta=%+.2f%%%s@." cat_name
            (100. *. mlp_u) (100. *. tree_u) delta_pct
            (if not !smoke_mode && Float.abs delta_pct > 5. then
               "  (outside 5% target!)"
             else "");
          Some (cat_name, mlp_u, tree_u, delta_pct)
        end)
      [ ("synthetic", Suite.Synthetic); ("real", Suite.Real) ]
  in
  (* Machine-readable record; smoke runs exercise the emitter on a temp
     path exactly like the other perf benches. *)
  let json_path =
    if !smoke_mode then Filename.temp_file "canopy-bench-distill" ".json"
    else "BENCH_distill.json"
  in
  json_write json_path (fun buf ->
      Printf.bprintf buf
        "{\n  \"bench\": \"distill\",\n  \"mode\": %S,\n  \"num_cores\": %d,\n\
        \  \"tree\": {\"samples\": %d, \"leaves\": %d, \"depth\": %d, \
         \"harvest_wall_s\": %.3f, \"fit_wall_s\": %.3f, \"fidelity_mse\": \
         %.6e},\n\
        \  \"probes_run\": %d,\n  \"entries\": [\n"
        (if !smoke_mode then "smoke" else "full")
        num_cores (Array.length ys) (Tree.n_leaves tree) (Tree.depth tree)
        harvest_wall fit_wall fidelity !probes_run;
      let last = List.length measured - 1 in
      List.iteri
        (fun i (name, kind, batch, ns) ->
          Printf.bprintf buf
            "    {\"name\": %S, \"policy\": %S, \"batch\": %d, \
             \"ns_per_decision\": %.1f}%s\n"
            name kind batch ns
            (if i = last then "" else ","))
        measured;
      Printf.bprintf buf "  ],\n  \"speedups\": [\n";
      let last = List.length speedups - 1 in
      List.iteri
        (fun i (b, s) ->
          Printf.bprintf buf "    {\"batch\": %d, \"tree_vs_mlp\": %.3f}%s\n" b
            s
            (if i = last then "" else ","))
        speedups;
      Printf.bprintf buf "  ],\n  \"utility\": [\n";
      let last = List.length utility - 1 in
      List.iteri
        (fun i (cat, mlp_u, tree_u, delta_pct) ->
          Printf.bprintf buf
            "    {\"category\": %S, \"mlp_utilization\": %.4f, \
             \"tree_utilization\": %.4f, \"delta_pct\": %.3f}%s\n"
            cat mlp_u tree_u delta_pct
            (if i = last then "" else ","))
        utility;
      Printf.bprintf buf "  ]\n}\n");
  Format.printf "wrote %s@." json_path;
  List.iter (fun (_, p) -> Pool.shutdown p) pools

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
              Certify.refute ~rng:refute_rng ~actor:model.actor ~property
                ~history ~state ~cwnd_tcp ~prev_cwnd comp
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

(* ------------------------------------------------------------------ *)
(* Driver *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("table3", table3);
    ("kernels", kernels);
    ("certify", certify_bench);
    ("par", par_bench);
    ("fleet", fleet_bench);
    ("distill", distill_bench);
    ("ablation", ablation);
    ("traces", traces_fig);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  smoke_mode := List.mem "--smoke" args;
  let names = List.filter (fun a -> a <> "--smoke") args in
  let requested =
    match names with
    | _ :: _ when not (List.mem "all" names) -> names
    | _ -> List.map fst experiments
  in
  Format.printf "canopy bench: scale=%s, steps=%d, traces=%dms, N_eval=%d@."
    scale.label scale.train_steps scale.trace_ms scale.eval_components;
  if not (Sys.file_exists artifacts_dir) then Sys.mkdir artifacts_dir 0o755;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
          let t0 = Unix.gettimeofday () in
          f ();
          Format.printf "[%s done in %.1fs]@." name
            (Unix.gettimeofday () -. t0)
      | None -> Format.printf "unknown experiment %S (skipped)@." name)
    requested
