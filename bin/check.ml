(* canopy-check: correctness tooling for the repository itself.

   - lint:       deterministic source-level analyzer with a checked-in
                 baseline; exits non-zero on findings not in the baseline
                 or on stale baseline entries.
   - racecheck:  token-level effect/race analysis of Pool-parallel
                 regions (shared-mutable-in-parallel); same baseline
                 file, same exactness contract.
   - deadcode:   lib/ exports no other module uses and optional
                 arguments no outside caller passes; same baseline file,
                 same exactness contract. Also lists the exports only
                 tests reach and the optional arguments only tests pass.
   - audit:      differential soundness sanitizer for the abstract
                 transformers backing every certificate.
   - netcheck:   static shape/finiteness validation of checkpoints.
   - faultcheck: fault-injection audit of the crash-safe training
                 runtime (kill/resume, corruption, NaN recovery).
   - scenariocheck: adversarial worst-case scenario search — compares
                 the searched worst case against the fixed 22-trace
                 suite's worst member, archives it to the scenario
                 corpus, and regression-checks the policy against the
                 archived corpus. *)

open Cmdliner
module A = Canopy_analysis

let pp_diag ppf d = Format.fprintf ppf "%a@." A.Diagnostic.pp d

(* Shared baseline gate for the lint and racecheck passes: each owns the
   baseline entries carrying its rule names, is exact against them (no
   fresh findings, no stale entries), and updates only its own section. *)
let gate ~pass ~baseline_path ~update_baseline ~owns diags =
  if update_baseline then begin
    A.Suppress.update baseline_path ~rules:owns diags;
    Format.printf "%s: wrote %d finding(s) to %s@." pass (List.length diags)
      baseline_path;
    0
  end
  else begin
    let entries = A.Suppress.load_entries baseline_path in
    let fresh, suppressed =
      A.Suppress.filter (A.Suppress.load baseline_path) diags
    in
    let stale = A.Suppress.stale entries ~rules:owns diags in
    List.iter (pp_diag Format.std_formatter) fresh;
    List.iter
      (fun (e : A.Suppress.entry) ->
        Format.printf "stale baseline entry: %s %s %s@." e.e_rule e.e_key
          e.e_rest)
      stale;
    if fresh = [] && stale = [] then begin
      Format.printf "%s: clean (%d baselined finding(s))@." pass suppressed;
      0
    end
    else begin
      Format.printf
        "%s: %d new finding(s), %d stale baseline entr(ies), %d baselined \
         — add a fix, an inline (* lint-ignore: rule *) waiver, or re-run \
         with --update-baseline@."
        pass (List.length fresh) (List.length stale) suppressed;
      1
    end
  end

(* --- lint ------------------------------------------------------------- *)

let lint_owns rule =
  List.mem_assoc rule A.Lint.rules

let print_summary diags baseline =
  let tally = Hashtbl.create 16 in
  List.iter
    (fun (d : A.Diagnostic.t) ->
      let fresh_n, base_n =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tally d.rule)
      in
      if A.Suppress.mem baseline d then
        Hashtbl.replace tally d.rule (fresh_n, base_n + 1)
      else Hashtbl.replace tally d.rule (fresh_n + 1, base_n))
    diags;
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun r c acc -> (r, c) :: acc) tally [])
  in
  Format.printf "%-28s %8s %10s@." "rule" "fresh" "baselined";
  List.iter
    (fun (rule, (fresh_n, base_n)) ->
      Format.printf "%-28s %8d %10d@." rule fresh_n base_n)
    rows;
  let tf, tb =
    List.fold_left
      (fun (f, b) (_, (f', b')) -> (f + f', b + b'))
      (0, 0) rows
  in
  Format.printf "%-28s %8d %10d@." "total" tf tb

let run_lint root baseline_path update_baseline format =
  let diags = A.Lint.run ~root () in
  match format with
  | "summary" ->
      print_summary diags (A.Suppress.load baseline_path);
      let fresh, _ = A.Suppress.filter (A.Suppress.load baseline_path) diags in
      let stale =
        A.Suppress.stale
          (A.Suppress.load_entries baseline_path)
          ~rules:lint_owns diags
      in
      if stale <> [] then
        Format.printf "stale baseline entries: %d@." (List.length stale);
      if fresh = [] && stale = [] then 0 else 1
  | _ ->
      gate ~pass:"lint" ~baseline_path ~update_baseline ~owns:lint_owns diags

let root =
  Arg.(value & opt string "."
       & info [ "root" ] ~doc:"Repository root to lint (walks lib/ and bin/).")

let baseline_path =
  Arg.(value & opt string "lint.baseline"
       & info [ "baseline" ] ~doc:"Baseline (suppression) file path.")

let update_baseline =
  Arg.(value & flag
       & info [ "update-baseline" ]
           ~doc:"Accept all current findings into the baseline file.")

let lint_format =
  Arg.(value & opt string "full"
       & info [ "format" ]
           ~doc:"Output format: full (diagnostics) or summary (per-rule \
                 counts, so baseline drift is visible in CI logs).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint" ~doc:"run the source-level lint pass")
    Term.(const run_lint $ root $ baseline_path $ update_baseline
          $ lint_format)

(* --- racecheck -------------------------------------------------------- *)

let race_owns rule = rule = A.Racecheck.rule_name

let run_racecheck root baseline_path update_baseline verbose =
  let report = A.Racecheck.run ~root () in
  if verbose then begin
    List.iter (fun r -> Format.printf "root: %s@." r)
      report.A.Racecheck.roots;
    Format.printf "reachable defs: %d@." report.A.Racecheck.reachable
  end;
  Format.printf
    "racecheck: %d parallel entry point(s), %d reachable def(s), %d mutable \
     global(s) over %d file(s)@."
    (List.length report.A.Racecheck.roots)
    report.A.Racecheck.reachable report.A.Racecheck.globals
    report.A.Racecheck.checked_files;
  gate ~pass:"racecheck" ~baseline_path ~update_baseline ~owns:race_owns
    report.A.Racecheck.diags

let race_verbose =
  Arg.(value & flag
       & info [ "verbose" ]
           ~doc:"List every parallel entry point and reachability stats.")

let racecheck_cmd =
  Cmd.v
    (Cmd.info "racecheck"
       ~doc:"token-level effect/race analysis of Pool-parallel regions")
    Term.(const run_racecheck $ root $ baseline_path $ update_baseline
          $ race_verbose)

(* --- deadcode --------------------------------------------------------- *)

let dead_owns rule = List.mem_assoc rule A.Deadcode.rules

let run_deadcode root baseline_path update_baseline =
  let report = A.Deadcode.run ~root () in
  List.iter (Format.printf "test-only: %s@.") report.A.Deadcode.test_only;
  List.iter (Format.printf "test-only knob: %s@.")
    report.A.Deadcode.test_knobs;
  Format.printf
    "deadcode: %d export(s) over %d file(s), %d that no program reaches, \
     %d optional argument(s) only tests pass@."
    report.A.Deadcode.exports report.A.Deadcode.checked_files
    (List.length report.A.Deadcode.test_only)
    (List.length report.A.Deadcode.test_knobs);
  gate ~pass:"deadcode" ~baseline_path ~update_baseline ~owns:dead_owns
    report.A.Deadcode.diags

let deadcode_cmd =
  Cmd.v
    (Cmd.info "deadcode"
       ~doc:"lib/ exports no other module uses and optional arguments no \
             outside caller passes, rooted at the programs in bin/, \
             bench/, examples/ and perfbench/")
    Term.(const run_deadcode $ root $ baseline_path $ update_baseline)

(* --- audit ------------------------------------------------------------ *)

let run_audit samples seed max_report quiet =
  if samples <= 0 then begin
    Format.eprintf "audit: --samples must be positive (got %d)@." samples;
    exit 2
  end;
  let result = A.Soundcheck.run ~seed ~max_report ~samples () in
  List.iter
    (fun v -> Format.printf "%a@." A.Soundcheck.pp_violation v)
    result.violations;
  if not quiet then begin
    Format.printf "audit: %d samples over %d transformers (seed %d)@."
      result.samples
      (List.length result.per_op)
      seed;
    List.iter
      (fun (op, n) -> Format.printf "  %-22s %6d@." op n)
      result.per_op
  end;
  if result.violation_count = 0 then begin
    Format.printf "audit: all transformers sound on sampled points@.";
    0
  end
  else begin
    Format.printf
      "audit: %d SOUNDNESS VIOLATION(S) — the verifier cannot be trusted \
       until this is fixed@."
      result.violation_count;
    1
  end

let samples =
  Arg.(value & opt int 10_000
       & info [ "samples" ] ~doc:"Total sampled point checks.")

let seed = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"PRNG seed.")

let max_report =
  Arg.(value & opt int 25
       & info [ "max-report" ] ~doc:"Cap on individually reported violations.")

let quiet =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the per-op sample table.")

let audit_cmd =
  Cmd.v
    (Cmd.info "audit" ~doc:"differential soundness audit of the verifier")
    Term.(const run_audit $ samples $ seed $ max_report $ quiet)

(* --- netcheck --------------------------------------------------------- *)

let run_netcheck paths =
  if paths = [] then begin
    (* No checkpoint given: validate a freshly initialized actor/critic
       pair as a smoke test of the initializers. *)
    let rng = Canopy_util.Prng.create 1 in
    let actor =
      Canopy_nn.Mlp.actor ~rng ~in_dim:30 ~hidden:64 ~out_dim:1
    in
    let critic =
      Canopy_nn.Mlp.critic ~rng ~state_dim:30 ~action_dim:1 ~hidden:64
    in
    let diags =
      A.Netcheck.check_mlp ~name:"fresh-actor" actor
      @ A.Netcheck.check_mlp ~name:"fresh-critic" critic
    in
    List.iter (pp_diag Format.std_formatter) diags;
    if diags = [] then begin
      Format.printf "netcheck: fresh actor/critic stacks valid@.";
      0
    end
    else 1
  end
  else begin
    let failures =
      List.fold_left
        (fun acc path ->
          match A.Netcheck.check_checkpoint path with
          | Error msg ->
              Format.printf "%s@." msg;
              acc + 1
          | Ok [] ->
              Format.printf "%s: ok@." path;
              acc
          | Ok diags ->
              List.iter (pp_diag Format.std_formatter) diags;
              acc + 1)
        0 paths
    in
    if failures = 0 then 0 else 1
  end

let ckpts =
  Arg.(value & pos_all string []
       & info [] ~docv:"CKPT"
           ~doc:"Checkpoint files to validate; none checks fresh networks.")

let netcheck_cmd =
  Cmd.v
    (Cmd.info "netcheck" ~doc:"validate network stacks and checkpoints")
    Term.(const run_netcheck $ ckpts)

(* --- faultcheck ------------------------------------------------------- *)

let run_faultcheck trials seed smoke =
  let trials = if smoke then 6 else trials in
  if trials <= 0 then begin
    Format.eprintf "faultcheck: --trials must be positive (got %d)@." trials;
    exit 2
  end;
  let outcome = A.Faultcheck.run ~seed ~trials () in
  List.iter (fun msg -> Format.printf "faultcheck: FAIL %s@." msg)
    outcome.failures;
  Format.printf
    "faultcheck: %d trials (%d kill/resume, %d corruption, %d nan-recovery, \
     seed %d)@."
    outcome.trials outcome.kill_resume outcome.corruption outcome.nan_recovery
    seed;
  if outcome.failures = [] then begin
    Format.printf
      "faultcheck: resume exact, corrupt checkpoints rejected, watchdog \
       recovers@.";
    0
  end
  else begin
    Format.printf
      "faultcheck: %d FAILURE(S) — the crash-safety guarantees do not hold@."
      (List.length outcome.failures);
    1
  end

let fc_trials =
  Arg.(value & opt int 60
       & info [ "trials" ] ~doc:"Randomized fault-injection trials.")

let fc_seed = Arg.(value & opt int 2026 & info [ "seed" ] ~doc:"PRNG seed.")

let fc_smoke =
  Arg.(value & flag
       & info [ "smoke" ] ~doc:"Quick mode for CI: run 6 trials.")

let faultcheck_cmd =
  Cmd.v
    (Cmd.info "faultcheck"
       ~doc:"fault-injection audit of the crash-safe training runtime")
    Term.(const run_faultcheck $ fc_trials $ fc_seed $ fc_smoke)

(* --- scenariocheck ---------------------------------------------------- *)

module Scn_space = Canopy_scenario.Space
module Scn_search = Canopy_scenario.Search
module Scn_corpus = Canopy_scenario.Corpus

(* A sandbox-local staging directory for smoke runs, so `dune runtest`
   never mutates the real corpus. *)
let fresh_tmp_dir () =
  let stem = Filename.temp_file "canopy-scn" "" in
  Sys.remove stem;
  Canopy_util.Atomic_file.mkdir_p stem;
  stem

let run_scenariocheck checkpoint objective dir seed duration_ms candidates
    rounds batch smoke =
  let objective = Scn_search.objective_of_name objective in
  let cfg =
    if smoke then Scn_search.smoke_config ~seed ()
    else
      {
        (Scn_search.default_config ~seed ()) with
        Scn_search.duration_ms;
        random_candidates = candidates;
        cem_rounds = rounds;
        cem_batch = batch;
      }
  in
  let history = cfg.Scn_search.history in
  let actor =
    match checkpoint with
    | Some path -> Canopy.Trainer.load_actor path
    | None ->
        Format.printf
          "note: no --checkpoint given; searching against an UNTRAINED \
           seed-1 actor@.";
        Canopy_nn.Mlp.actor
          ~rng:(Canopy_util.Prng.create 1)
          ~in_dim:(history * Canopy_orca.Observation.feature_count)
          ~hidden:(if smoke then 8 else 32)
          ~out_dim:1
  in
  let dir =
    match dir with
    | Some d -> d
    | None -> if smoke then fresh_tmp_dir () else "_artifacts/scenarios"
  in
  (* Regression pass first: re-score the archived corpus with this
     policy, so hardening progress (or regressions) is visible before
     the new search runs. *)
  let corpus = Scn_corpus.load_dir dir in
  if corpus <> [] then begin
    Format.printf "-- corpus regression (%d archived scenario(s)) --@."
      (List.length corpus);
    List.iter
      (fun (r : Scn_corpus.record) ->
        let obj = Scn_search.objective_of_name r.objective in
        let score =
          Scn_search.score_compiled
            ~refute_rng:(Canopy_util.Prng.create r.scn_seed)
            ~actor ~history ~duration_ms:cfg.Scn_search.duration_ms obj
            (Scn_corpus.compiled ~duration_ms:cfg.Scn_search.duration_ms r)
        in
        Format.printf "  %-28s archived=%+.4f now=%+.4f@." r.rec_name r.score
          score)
      corpus
  end;
  let suite_name, suite_score =
    Scn_search.suite_worst ~duration_ms:cfg.Scn_search.duration_ms ~history
      ~actor objective
  in
  let result = Scn_search.search cfg ~actor objective in
  let worst = result.Scn_search.worst in
  Format.printf
    "scenariocheck: objective=%s seed=%d evaluated=%d@.  suite worst:    \
     %-22s score=%+.4f@.  searched worst: scn_seed=%-12d score=%+.4f@.  \
     round best: %s@.  worst params: %a@."
    (Scn_search.objective_name objective)
    cfg.Scn_search.seed result.Scn_search.evaluated suite_name suite_score
    worst.Scn_search.scn_seed worst.Scn_search.score
    (String.concat " "
       (List.map (Printf.sprintf "%+.4f") result.Scn_search.round_best))
    Scn_space.pp_params worst.Scn_search.params;
  (* Archive the worst case and prove it replays: save, reload, and
     re-score both the in-memory and the reloaded record through the
     same scorer — any bit divergence in the vector round-trip or the
     compile path shows up as a score mismatch. *)
  let record = Scn_corpus.of_search ~search_seed:cfg.Scn_search.seed objective worst in
  let path =
    Scn_corpus.save ~dir ~duration_ms:cfg.Scn_search.duration_ms record
  in
  Format.printf "  archived: %s@." path;
  let rescore (r : Scn_corpus.record) =
    Scn_search.score_compiled
      ~refute_rng:(Canopy_util.Prng.create r.scn_seed)
      ~actor ~history ~duration_ms:cfg.Scn_search.duration_ms objective
      (Scn_corpus.compiled ~duration_ms:cfg.Scn_search.duration_ms r)
  in
  let direct = rescore record in
  let replayed = rescore (Scn_corpus.load_file path) in
  let replay_ok =
    Int64.bits_of_float direct = Int64.bits_of_float replayed
  in
  if not replay_ok then
    Format.printf
      "scenariocheck: REPLAY MISMATCH — archived record re-scores to %h, \
       in-memory to %h@."
      replayed direct;
  let gap = suite_score -. worst.Scn_search.score in
  Format.printf "  gap (suite worst − searched worst): %+.4f@." gap;
  let beats_suite = Float.compare worst.Scn_search.score suite_score < 0 in
  if not beats_suite then
    Format.printf
      "scenariocheck: searched worst case does NOT beat the fixed suite's \
       worst member@.";
  (* Machine-readable report next to the corpus (atomic). *)
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "{\n  \"objective\": %S,\n  \"seed\": %d,\n  \"evaluated\": %d,\n  \
     \"suite_worst_trace\": %S,\n  \"suite_worst_score\": %.6f,\n  \
     \"searched_worst_score\": %.6f,\n  \"searched_worst_record\": %S,\n  \
     \"gap\": %.6f\n}\n"
    (Scn_search.objective_name objective)
    cfg.Scn_search.seed result.Scn_search.evaluated suite_name suite_score
    worst.Scn_search.score record.Scn_corpus.rec_name gap;
  Canopy_util.Atomic_file.write
    (Filename.concat dir "REPORT.json")
    (Buffer.contents buf);
  if replay_ok && beats_suite then 0 else 1

let scn_checkpoint =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ]
           ~doc:"Actor checkpoint to search against; an untrained seed-1 \
                 actor stands in when absent.")

let scn_objective =
  Arg.(value & opt string "utility"
       & info [ "objective" ]
           ~doc:"Objective to minimize: utility | p95 | violation | jain.")

let scn_dir =
  Arg.(value & opt (some string) None
       & info [ "dir" ]
           ~doc:"Scenario corpus directory (default _artifacts/scenarios; a \
                 fresh temporary directory under --smoke).")

let scn_seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Search master seed.")

let scn_duration =
  Arg.(value & opt int 8_000
       & info [ "duration-ms" ] ~doc:"Candidate episode length.")

let scn_candidates =
  Arg.(value & opt int 24
       & info [ "candidates" ] ~doc:"Random-exploration evaluations.")

let scn_rounds =
  Arg.(value & opt int 3 & info [ "rounds" ] ~doc:"CEM refinement rounds.")

let scn_batch =
  Arg.(value & opt int 16
       & info [ "batch" ] ~doc:"Evaluations per refinement round.")

let scn_smoke =
  Arg.(value & flag
       & info [ "smoke" ]
           ~doc:"Quick mode for CI: tiny search budget, 2 s episodes, \
                 temporary corpus directory.")

let scenariocheck_cmd =
  Cmd.v
    (Cmd.info "scenariocheck"
       ~doc:"adversarial worst-case scenario search and corpus regression")
    Term.(
      const run_scenariocheck $ scn_checkpoint $ scn_objective $ scn_dir
      $ scn_seed $ scn_duration $ scn_candidates $ scn_rounds $ scn_batch
      $ scn_smoke)

(* --- bench-report ------------------------------------------------------ *)

(* Perf CI over the BENCH_*.json records: the committed repo-root files
   are the recorded baselines, the timestamped snapshots under
   _artifacts/bench_history/ are the local measurements. Renders the
   per-kernel markdown table and fails when any tracked kernel's latest
   full-run measurement regresses more than the threshold. When no local
   history exists (fresh checkout, sandboxed CI) there is nothing to
   gate — that is reported honestly and the gate passes. A malformed
   committed baseline fails the run. *)
let run_bench_report baseline_dir history_dir threshold out smoke =
  let module B = A.Bench_report in
  match B.load_baselines ~dir:baseline_dir with
  | exception Failure msg ->
      Format.eprintf "%s@." msg;
      1
  | baselines ->
      let history = B.load_history ~dir:history_dir in
      let report = B.build ~threshold_pct:threshold ~baselines ~history () in
      (match out with
      | Some path -> Canopy_util.Atomic_file.write path report.B.markdown
      | None -> if not smoke then print_string report.B.markdown);
      Format.printf
        "bench-report: %d baseline kernel(s) tracked, %d history snapshot(s), \
         %d compared, %d regression(s) beyond %.0f%%@."
        report.B.tracked (List.length history) report.B.compared
        (List.length report.B.regressions)
        threshold;
      if history = [] then
        Format.printf
          "bench-report: no local bench history under %s — nothing to gate \
           (run the full benches to populate it)@."
          history_dir;
      List.iter
        (fun (r : B.regression) ->
          Format.printf "REGRESSION %s: baseline %.1f -> latest %.1f (%+.1f%%)@."
            r.B.r_kernel r.B.baseline r.B.latest r.B.delta_pct)
        report.B.regressions;
      if report.B.regressions = [] then 0 else 1

let br_baseline_dir =
  Arg.(value & opt string "."
       & info [ "baseline-dir" ]
           ~doc:"Directory holding the committed BENCH_*.json baselines.")

let br_history_dir =
  Arg.(value & opt string "_artifacts/bench_history"
       & info [ "history" ] ~doc:"Bench-history snapshot directory.")

let br_threshold =
  Arg.(value & opt float 15.
       & info [ "threshold" ]
           ~doc:"Regression threshold in percent vs the baseline.")

let br_out =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~doc:"Write the markdown report here instead of stdout.")

let br_smoke =
  Arg.(value & flag
       & info [ "smoke" ]
           ~doc:"Quick mode for CI: summary and gate only, no full table.")

let bench_report_cmd =
  Cmd.v
    (Cmd.info "bench-report"
       ~doc:"per-kernel perf table over the bench history, with a \
             regression gate against the committed BENCH_*.json baselines")
    Term.(
      const run_bench_report $ br_baseline_dir $ br_history_dir $ br_threshold
      $ br_out $ br_smoke)

(* ---------------------------------------------------------------------- *)

let cmd =
  let doc =
    "correctness tooling: lint, racecheck, deadcode, verifier soundness \
     audit, netcheck, faultcheck, scenariocheck, bench-report"
  in
  Cmd.group (Cmd.info "canopy-check" ~doc)
    [
      lint_cmd;
      racecheck_cmd;
      deadcode_cmd;
      audit_cmd;
      netcheck_cmd;
      faultcheck_cmd;
      scenariocheck_cmd;
      bench_report_cmd;
    ]

let () = exit (Cmd.eval' cmd)
