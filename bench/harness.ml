(* What the paper figures and the perf benches share: the scale, the
   cached trained models, table and CSV output, and one copy each of the
   bechamel timing loop, the BENCH record writer, the domain pools and
   the bit-equality probe ledger. *)

module Eval = Canopy.Eval
module Trainer = Canopy.Trainer
module Property = Canopy.Property
module Certify = Canopy.Certify
module Suite = Canopy_trace.Suite
module Trace = Canopy_trace.Trace
module Stats = Canopy_util.Stats
module Pool = Canopy_util.Pool
module Mat = Canopy_tensor.Mat
module Json = Canopy_analysis.Bench_report

let artifacts_dir = "_artifacts"

(* [--smoke]: tiny iteration counts for the perf benches so dune's
   @check can exercise them end to end; their records then go to temp
   files to keep checkouts clean. *)
let smoke_mode = ref false

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

let canopy_perf () =
  get_model ~name:"canopy-perf" ~lambda:0.25
    ~property:(Property.performance ()) ~n_components:5

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
(* Output *)

let traces () = Suite.all ~duration_ms:scale.trace_ms ()

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

(* ------------------------------------------------------------------ *)
(* Bechamel timing *)

(* Times each [(name, units, f)] under bechamel and returns the OLS
   estimate as [(name, ns)] per unit of work, one call of [f] doing
   [units] units; prints one row each, and leaves out a kernel with no
   estimate. [stabilize] is bechamel's default of stabilizing and
   compacting the GC before every sample. The perf benches turn it off:
   it perturbs the steady-state heap a training loop actually runs with
   and makes the update timings swing by tens of percent across runs. *)
let time_kernels ?(stabilize = false) ~group ~per ~limit ~quota tests =
  let open Bechamel in
  let grouped =
    Test.make_grouped ~name:group
      (List.map (fun (name, _, f) -> Test.make ~name (Staged.stage f)) tests)
  in
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota) ~stabilize
      ~compaction:stabilize ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Format.printf "%-26s %-14s %-14s@." "kernel" ("ns/" ^ per) (per ^ "s/s");
  List.filter_map
    (fun (name, units, _) ->
      match
        Option.bind
          (Hashtbl.find_opt results (group ^ "/" ^ name))
          Analyze.OLS.estimates
      with
      | Some [ ns ] when ns > 0. ->
          let ns = ns /. float_of_int units in
          Format.printf "%-26s %14.1f %14.1f@." name ns (1e9 /. ns);
          Some (name, ns)
      | _ ->
          Format.printf "%-26s (no estimate)@." name;
          None)
    tests

(* ------------------------------------------------------------------ *)
(* BENCH records *)

let int n = Json.Num (float_of_int n)

(* [v] rounded to [digits] decimals, so a record keeps the precision its
   numbers are meaningful to. *)
let fixed digits v =
  let s = 10. ** float_of_int digits in
  Json.Num (Float.round (v *. s) /. s)

(* Writes the BENCH record [fields], tagged with its ["bench"],
   ["mode"] and ["gemm_kernel"] (which GEMM inner loops ran: ["avx2"] or
   ["ocaml"], so a silent fallback shows in the record). A full run
   replaces BENCH_<bench>.json at the repo root through the stage+rename
   path, so an interrupted bench never leaves a torn record, and
   archives a stamped copy under [_artifacts/bench_history/] so
   successive runs build a local perf history. A smoke run writes a
   temp file instead, reads it back through the parser, fails unless it
   reads as written, and removes it. *)
let write_record bench fields =
  let mode = if !smoke_mode then "smoke" else "full" in
  let record =
    Json.Obj
      (("bench", Json.Str bench)
      :: ("mode", Json.Str mode)
      :: ("gemm_kernel", Json.Str (Mat.gemm_kernel ()))
      :: fields)
  in
  let contents = Json.json_to_string record in
  if !smoke_mode then begin
    let path = Filename.temp_file ("canopy-bench-" ^ bench) ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Canopy_util.Atomic_file.write path contents;
        let read = In_channel.with_open_bin path In_channel.input_all in
        if Json.json_of_string read <> record then
          failwith
            (Printf.sprintf "%s: record %s reads back changed" bench path));
    Format.printf "wrote, read back and removed %s@." path
  end
  else begin
    let path = Printf.sprintf "BENCH_%s.json" bench in
    Canopy_util.Atomic_file.write path contents;
    let dir = Filename.concat artifacts_dir "bench_history" in
    Canopy_util.Atomic_file.mkdir_p dir;
    let tm = Unix.localtime (Unix.gettimeofday ()) in
    let stamp =
      Printf.sprintf "%04d%02d%02dT%02d%02d%02d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        tm.Unix.tm_sec
    in
    Canopy_util.Atomic_file.write
      (Filename.concat dir (Printf.sprintf "BENCH_%s-%s.json" bench stamp))
      contents;
    Format.printf "wrote %s@." path
  end

(* ------------------------------------------------------------------ *)
(* Domain pools *)

(* [recommended_domain_count] is the portable core-count probe OCaml
   gives us; it is the denominator every speedup claim is conditioned
   on. Every pool-parallel bench runs at 1 domain (the sequential
   reference), 2, and the core count. *)
let num_cores = Domain.recommended_domain_count ()
let domain_counts = List.sort_uniq Int.compare [ 1; 2; num_cores ]

(* The pools [with_pools] holds open, by domain count. *)
let pools = ref []

(* Runs [g] with the [d]-domain pool of the enclosing [with_pools] as the
   ambient default. *)
let under d g =
  Pool.set_default (List.assoc d !pools);
  g ()

(* [with_pools f] runs [f ()] with one pool per domain count open for
   [under]. Afterwards the 1-domain pool is the ambient default (at_exit
   reaps it) and the sized ones are shut down. *)
let with_pools f =
  pools := List.map (fun d -> (d, Pool.create ~domains:d ())) domain_counts;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default (List.assoc 1 !pools);
      List.iter (fun (d, p) -> if d <> 1 then Pool.shutdown p) !pools;
      pools := [])
    f

(* Runs [f] with the GEMM grain forced down to one flop, so even small
   probe workloads actually chunk across the pool. *)
let with_tiny_grain f =
  let min_flops, chunk_flops = Mat.parallel_grain () in
  Fun.protect
    ~finally:(fun () -> Mat.set_parallel_grain ~min_flops ~chunk_flops)
    (fun () ->
      Mat.set_parallel_grain ~min_flops:1 ~chunk_flops:1;
      f ())

(* A row or ratio taken with more domains than cores measures the
   scheduler's time-slicing, not parallelism: it is recorded, but its
   [skipped_reason] field keeps it from gating or reading as a claim. *)
let oversubscribed d =
  if d <= num_cores then []
  else
    [
      ( "skipped_reason",
        Json.Str
          (Printf.sprintf
             "%d domains oversubscribe %d core%s: measures time-slicing, \
              not parallel speedup"
             d num_cores
             (if num_cores = 1 then "" else "s")) );
    ]

(* ------------------------------------------------------------------ *)
(* Bit-equality probes *)

(* [run_probes ~bench ~expect f] hands [f] a [probe name ok] that fails
   the run unless [ok]. Afterwards every name in [expect] must have run:
   probe coverage is part of the contract, so a refactor that silently
   stops routing a workload through its parallel path cannot pass the
   probes vacuously. Returns the names that ran, in order. *)
let run_probes ~bench ~expect f =
  let ran = ref [] in
  let probe name ok =
    if not ok then
      failwith (Printf.sprintf "%s: probe %s: results differ" bench name);
    ran := name :: !ran;
    Format.printf "probe %-18s OK@." name
  in
  f probe;
  List.iter
    (fun name ->
      if not (List.mem name !ran) then
        failwith (Printf.sprintf "%s: probe %s never ran" bench name))
    expect;
  List.rev !ran
