(* Benchmark dispatcher: regenerates every table and figure of the paper's
   evaluation (Section 6) at a laptop scale ([Figures]) and runs the perf
   benches that write the BENCH_*.json records ([Perf]).

   Usage:
     dune exec bench/main.exe                 # everything, quick scale
     dune exec bench/main.exe -- fig5 fig10   # selected experiments
     CANOPY_BENCH_SCALE=full dune exec bench/main.exe

   Trained models are cached under _artifacts/ so repeated invocations
   skip training. *)

open Harness

let experiments =
  [
    ("table1", Figures.table1);
    ("table2", Figures.table2);
    ("fig1", Figures.fig1);
    ("fig2", Figures.fig2);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("fig7", Figures.fig7);
    ("fig8", Figures.fig8);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("fig12", Figures.fig12);
    ("fig13", Figures.fig13);
    ("fig14", Figures.fig14);
    ("table3", Figures.table3);
    ("kernels", Perf.kernels);
    ("certify", Perf.certify_bench);
    ("par", Perf.par_bench);
    ("fleet", Perf.fleet_bench);
    ("distill", Perf.distill_bench);
    ("ablation", Figures.ablation);
    ("traces", Figures.traces_fig);
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
