(* The measuring half of the end-to-end benchmark.

     canopy_perf run --workload W --seed N --seconds S --trace 0|1
                     --inputs DIR --actor-crc HEX --tree-crc HEX
     canopy_perf regen --out DIR --seed N

   [run] prints, as the last line of stdout, one JSON object with the raw
   measurements of one run: per-repeat set-up and unit walls, per-step
   latencies, quality figures and output digests, plus per-layer spans
   when traced. run.py turns them into the benchmark's metrics, applies
   the output checks and prints the result line. [regen] rebuilds the
   committed policy inputs (served actor and distilled tree) from a seed
   and prints their checksums.

   Every unit of work waits for the previous one (a closed loop with one
   client): a training step, a fleet decision tick or an evaluation cell.
   Spans are taken here, around the public calls into each layer; the
   traced loops make the same calls in the same order as Trainer.train,
   Eval.eval_policy and Fleet_eval.serve, and their outputs are compared
   bit for bit with those loops' own. *)

module Trainer = Canopy.Trainer
module Eval = Canopy.Eval
module Fleet_eval = Canopy.Fleet_eval
module Certify = Canopy.Certify
module Property = Canopy.Property
module Agent_env = Canopy_orca.Agent_env
module Fleet_env = Canopy_orca.Fleet_env
module Observation = Canopy_orca.Observation
module Fleet = Canopy_netsim.Fleet
module Td3 = Canopy_rl.Td3
module Mat = Canopy_tensor.Mat
module Pool = Canopy_util.Pool
module Prng = Canopy_util.Prng
module Crc32 = Canopy_util.Crc32
module Tree = Canopy_distill.Tree
module Suite = Canopy_trace.Suite

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Output *)

type json =
  | F of float
  | I of int
  | S of string
  | L of json list
  | O of (string * json) list

let rec write_json buf = function
  | F x when Float.is_nan x -> Buffer.add_string buf "NaN"
  | F x when x = Float.infinity -> Buffer.add_string buf "Infinity"
  | F x when x = Float.neg_infinity -> Buffer.add_string buf "-Infinity"
  | F x -> Printf.bprintf buf "%.17g" x
  | I n -> Printf.bprintf buf "%d" n
  | S s -> Printf.bprintf buf "\"%s\"" (String.escaped s)
  | L xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write_json buf x)
        xs;
      Buffer.add_char buf ']'
  | O kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Printf.bprintf buf "\"%s\":" k;
          write_json buf v)
        kvs;
      Buffer.add_char buf '}'

let floats xs = L (List.map (fun x -> F x) xs)

(* Peak size of the major heap. The process's peak RSS moves by a few
   megabytes from run to run on the same input (huge pages), while the
   heap's high-water mark repeats, and it holds everything the workloads
   keep, the scalar Env's RTT samples included. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* CRC-32 over the IEEE bits of a float sequence: two runs agree on a
   digest only if they agree on every bit of every value. *)
let digest_floats xs =
  let b = Buffer.create (8 * List.length xs) in
  List.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) xs;
  Crc32.to_hex (Crc32.string (Buffer.contents b))

let clamp_action = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Committed policy inputs *)

let actor_file = "actor.ckpt"
let tree_file = "tree.ckpt"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checksum is verified before the bytes are parsed, so a changed
   input file cannot silently change what the benchmark measures. *)
let checked_read ~dir ~file ~crc =
  let path = Filename.concat dir file in
  let data = read_file path in
  let got = Crc32.to_hex (Crc32.string data) in
  if got <> crc then
    failwith (Printf.sprintf "%s: checksum %s, expected %s" path got crc);
  data

type inputs = { actor : Canopy_nn.Mlp.t; tree : Tree.t }

let load_inputs ~dir ~actor_crc ~tree_crc =
  let actor =
    Canopy_nn.Checkpoint.of_string
      (checked_read ~dir ~file:actor_file ~crc:actor_crc)
  in
  Canopy_analysis.Netcheck.assert_valid ~what:actor_file actor;
  let tree = Tree.of_string (checked_read ~dir ~file:tree_file ~crc:tree_crc) in
  { actor; tree }

(* The served actor: the certificate-in-the-loop recipe of the bench's
   canopy-perf model (λ=0.25, performance property, N=5) on 8 stratified
   links; the tree is distilled from its served actions as in the
   distill bench. *)
let regen ~out ~seed =
  let envs =
    Trainer.env_pool ~bw_range_mbps:(6., 96.) ~rtt_range_ms:(20, 80)
      ~duration_ms:8_000 ~seed ()
  in
  let agent, _ =
    Trainer.train (Trainer.default_config ~seed ~total_steps:2_500 ~envs ())
  in
  let actor = Td3.actor agent in
  let harvest =
    Array.of_list
      (List.map
         (fun c -> { c with Agent_env.interval_ms = Some 40 })
         (Trainer.env_pool ~n:6 ~duration_ms:8_000 ~seed ()))
  in
  let xs, ys = Canopy_distill.Harvest.collect ~actor harvest in
  let tree =
    Canopy_distill.Fit.fit
      ~config:{ Canopy_distill.Fit.default_config with max_leaves = 64 }
      ~xs ~ys ()
  in
  Canopy_util.Atomic_file.mkdir_p out;
  let actor_path = Filename.concat out actor_file in
  let tree_path = Filename.concat out tree_file in
  Canopy_nn.Checkpoint.save actor actor_path;
  Tree.save tree_path tree;
  let crc path = S (Crc32.to_hex (Crc32.string (read_file path))) in
  let buf = Buffer.create 128 in
  write_json buf
    (O [ ("seed", I seed); (actor_file, crc actor_path); (tree_file, crc tree_path) ]);
  print_endline (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Span accumulators for traced runs *)

type spans = (string, float ref) Hashtbl.t

let add (sp : spans) name v =
  match Hashtbl.find_opt sp name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add sp name (ref v)

let span sp name t0 t1 = add sp name (t1 -. t0)
let span_s (sp : spans) name =
  match Hashtbl.find_opt sp name with Some r -> !r | None -> 0.

(* Each named span's share of a traced loop's wall, plus the remainder no
   span covers; the report prints these beside the per-layer metrics. *)
let shares sp names wall =
  let covered = List.fold_left (fun a n -> a +. span_s sp n) 0. names in
  List.map (fun n -> (n, span_s sp n /. wall)) names
  @ [ ("unattributed", (wall -. covered) /. wall) ]

(* One repeat of a workload: its set-up wall, the wall of the timed work,
   the decisions that work made, per-unit latencies, quality figures and
   the digest its output must reproduce. Where the quality figures cost
   work of their own (train's post-training evaluation, serve_clean's
   sampled certificates), only a run's first repeat computes them; the
   others carry [] and must reproduce its digest. *)
type repeat = {
  setup_s : float list;
  wall_s : float;
  decisions : int;
  units : int;
  unit_ms : float list;
  quality : (string * float) list;
  digest : string;
}

let repeat_json r =
  O
    [
      ("setup_s", floats r.setup_s);
      ("wall_s", F r.wall_s);
      ("decisions", I r.decisions);
      ("units", I r.units);
      ("digest", S r.digest);
      ("unit_ms", floats r.unit_ms);
      ("quality", O (List.map (fun (k, v) -> (k, F v)) r.quality));
    ]

(* Latencies of units 1..n from [stamps.(0)], taken as the library loop
   is entered, and each unit's end stamp. *)
let gaps_ms stamps n =
  List.init n (fun i -> 1e3 *. (stamps.(i + 1) -. stamps.(i)))

(* Repeats per run: the repeats do identical work, and run.py keeps
   each unit's fastest latency over them, so a unit that a shared host
   slows in one repeat is read from another. The count is a fixed
   function of the run length, about [seconds] of work on a 2 GHz x86
   core, rather than "until the time is up", so a run's allocation
   sequence, and with it the peak memory, does not depend on the host's
   speed. *)
let min_repeats = 3

let repeats ~seconds ~per_repeat_s =
  max min_repeats (int_of_float (float_of_int seconds /. per_repeat_s))

(* Each repeat, each set-up trial and each timed stretch of work starts
   from a collected heap. The process's peak memory is then one repeat's
   working set whatever the number of repeats, and the collector's slices
   fall on the same units in every repeat and every process, rather than
   wherever the allocation before them (a set-up batch sized by the
   clock) left the major cycle. *)
let fresh_heap () = Gc.full_major ()

(* Host calibration: a fixed piece of work that calls none of the
   libraries (sorting 4096 floats and a 64 x 64 matrix product), timed
   at the start of every repeat. The host this runs on slows everything
   by up to a third for minutes at a time, which no choice among a run's
   own samples removes; run.py scales the run's timings by the fastest
   calibration trial, so such a stretch moves the figures less. *)
let calib_n = 4096
let calib_m = 64

let calib_src =
  Array.init calib_n (fun i -> float_of_int (i * 7919 mod calib_n) /. 7.)

let calib_kernel () =
  let a = Array.copy calib_src in
  Array.sort Float.compare a;
  let m = calib_m in
  let x = Array.init (m * m) (fun i -> a.(i)) in
  let y = Array.make (m * m) 0. in
  for i = 0 to m - 1 do
    for k = 0 to m - 1 do
      let xik = x.((i * m) + k) in
      for j = 0 to m - 1 do
        y.((i * m) + j) <- y.((i * m) + j) +. (xik *. x.((k * m) + j))
      done
    done
  done;
  y.(0) +. a.(calib_n - 1)

let calib_trials = 8
let calib_ms = ref []

(* One untimed call first, so no trial pays for faulting in the arrays. *)
let calibrate () =
  ignore (Sys.opaque_identity (calib_kernel ()));
  for _ = 1 to calib_trials do
    let t0 = now () in
    ignore (Sys.opaque_identity (calib_kernel ()));
    calib_ms := (1e3 *. (now () -. t0)) :: !calib_ms
  done

(* Set-up is repeated and every trial timed, so run.py can take the
   run's fastest trial; the last trial's products are used. Each trial
   runs the set-up [batch] times and reports the mean: train's set-up
   takes microseconds, and a batch of a thousand keeps the timer's
   microsecond steps from deciding its figure. The batch is fixed rather
   than sized by the clock, so the allocation, and with it the peak heap,
   does not depend on the host's speed. *)
let setup_trials = 5

let timed_setup ~batch f =
  let x = ref (f ()) in
  let trial () =
    fresh_heap ();
    let t0 = now () in
    for _ = 1 to batch do
      x := f ()
    done;
    (now () -. t0) /. float_of_int batch
  in
  let times = List.init setup_trials (fun _ -> trial ()) in
  (!x, times)

(* ------------------------------------------------------------------ *)
(* train: Trainer.train with the certificate in the loop *)

let perf = Property.performance ()

(* The default certificate-in-the-loop configuration on its seeded pool
   of 8 stratified links over the Table-2 ranges (6-192 Mbps, 10-200 ms).
   The training seed is fixed: after a short run the trained actor's
   utilization, delay and loss swing by a third from one training seed to
   the next, far past any bound a regression gate could use, so the
   benchmark seed does not reach this workload's inputs. *)
let train_seed = 42

let train_config ~steps =
  Trainer.default_config ~seed:train_seed ~total_steps:steps
    ~envs:(Trainer.env_pool ~seed:train_seed ())
    ()

(* Greedy certified evaluation of the trained actor on its own training
   links: what the run produced, in utilization, delay and loss. *)
let post_eval_ms = 4_000

let train_quality (cfg : Trainer.config) actor epochs =
  let results =
    List.map
      (fun (c : Agent_env.config) ->
        fst
          (Eval.eval_policy ~certificate:(perf, cfg.n_components)
             ~policy:(`Mlp actor) ~history:cfg.history
             (Eval.link ~min_rtt_ms:c.min_rtt_ms ~bdp:2.
                ~duration_ms:post_eval_ms c.trace)))
      cfg.envs
  in
  let last = List.nth epochs (List.length epochs - 1) in
  let avg f = mean (List.map f results) in
  [
    ("utilization", avg (fun (r : Eval.result) -> r.utilization));
    ("qdelay_ms", avg (fun (r : Eval.result) -> r.avg_qdelay_ms));
    ("p95_qdelay_ms", avg (fun (r : Eval.result) -> r.p95_qdelay_ms));
    ("loss_rate", avg (fun (r : Eval.result) -> r.loss_rate));
    ("fcc", last.Trainer.fcc);
    ("fcs", avg (fun (r : Eval.result) -> Option.value r.fcs ~default:Float.nan));
    ("reward", last.Trainer.raw_reward);
  ]

let actor_crc actor =
  Crc32.to_hex (Crc32.string (Canopy_nn.Checkpoint.to_string actor))

let train_repeat ~steps ~checked =
  fresh_heap ();
  calibrate ();
  let cfg, setup_s = timed_setup ~batch:1000 (fun () -> train_config ~steps) in
  let stamps = Array.make (steps + 1) 0. in
  let fault_hook ~step _ = stamps.(step) <- now () in
  fresh_heap ();
  let t0 = now () in
  stamps.(0) <- t0;
  let agent, epochs = Trainer.train ~fault_hook cfg in
  let wall_s = now () -. t0 in
  let actor = Td3.actor agent in
  ( cfg,
    {
      setup_s;
      wall_s;
      decisions = steps;
      units = steps;
      unit_ms = gaps_ms stamps steps;
      quality = (if checked then train_quality cfg actor epochs else []);
      digest = actor_crc actor;
    } )

(* Trainer.train's step, call for call, with a span around each layer.
   The watchdog is off in the benchmark config, so the loop has no
   snapshot boundaries. Returns the actor checksum, the loop wall and the
   spans. *)
let traced_train (cfg : Trainer.config) =
  let sp : spans = Hashtbl.create 8 in
  let t_start = now () in
  let rng = Prng.create cfg.seed in
  let state_dim = cfg.history * Observation.feature_count in
  let agent =
    Td3.create ~rng:(Prng.split rng 0)
      { (Td3.default_config ~state_dim ~action_dim:1) with hidden = cfg.hidden }
  in
  let envs =
    Array.of_list
      (List.map
         (fun c ->
           let e = Agent_env.create c in
           ignore (Agent_env.reset e);
           e)
         cfg.envs)
  in
  for step = 1 to cfg.total_steps do
    let env = envs.(step mod Array.length envs) in
    let s = Agent_env.state env in
    let t0 = now () in
    let action_vec = Td3.select_action ~explore:true agent s in
    let t1 = now () in
    let cert =
      Certify.certify ~engine:cfg.engine ~actor:(Td3.actor agent)
        ~property:cfg.property ~n_components:cfg.n_components
        ~history:cfg.history ~state:s ~cwnd_tcp:(Agent_env.cwnd_tcp env)
        ~prev_cwnd:(Agent_env.prev_cwnd_enforced env) ()
    in
    let t2 = now () in
    let res = Agent_env.step env ~action:action_vec.(0) in
    let t3 = now () in
    let reward =
      ((1. -. cfg.lambda) *. res.raw_reward) +. (cfg.lambda *. cert.r_verifier)
    in
    Td3.observe agent
      {
        Canopy_rl.Replay_buffer.state = s;
        action = action_vec;
        reward;
        next_state = res.state;
        terminal = false;
        truncated = res.finished;
      };
    let t4 = now () in
    for _ = 1 to cfg.updates_per_step do
      Td3.update agent
    done;
    let t5 = now () in
    if res.finished then ignore (Agent_env.reset env);
    let t6 = now () in
    span sp "rl.select_action" t0 t1;
    span sp "certify.certify" t1 t2;
    span sp "orca.agent_env_step" t2 t3;
    span sp "orca.agent_env_step" t5 t6;
    span sp "rl.observe" t3 t4;
    span sp "rl.update" t4 t5
  done;
  (actor_crc (Td3.actor agent), now () -. t_start, sp)

(* Steps per training run: fixed, so the trained actor and its quality
   figures do not depend on the run length or the host. The first 256
   steps fill the replay buffer and skip the update, so 800 steps put the
   median step well inside the updating phase. The number of training
   runs grows with the run length. *)
let train_steps = 800

let run_train ~seconds ~traced =
  let steps = train_steps in
  if not traced then begin
    let n = repeats ~seconds ~per_repeat_s:2.5 in
    (List.init n (fun i -> snd (train_repeat ~steps ~checked:(i = 0))), [], [])
  end
  else begin
    let cfg, reference = train_repeat ~steps ~checked:true in
    let crc, wall, sp = traced_train cfg in
    let per_step name = 1e3 *. span_s sp name /. float_of_int steps in
    let names =
      [
        "rl.select_action";
        "rl.observe";
        "rl.update";
        "certify.certify";
        "orca.agent_env_step";
      ]
    in
    let covered = List.fold_left (fun a n -> a +. span_s sp n) 0. names in
    ( [ reference; { reference with digest = crc } ],
      List.map (fun n -> (n ^ ".ms", per_step n)) names
      @ [
          ("bench.unit.ms", 1e3 *. wall /. float_of_int steps);
          ("bench.unattributed.ms", 1e3 *. (wall -. covered) /. float_of_int steps);
          ("bench.trace_overhead_frac", (wall /. reference.wall_s) -. 1.);
        ],
      shares sp names wall )
  end

(* ------------------------------------------------------------------ *)
(* evaluate: the suite scored three ways (Section 6) *)

let eval_trace_ms = 1_000
let eval_components = 50

(* The 22 suite traces, 1 s each, at 2 BDP, with minRTTs spread over
   30-50 ms. The seed rotates the order of the cells; the cells themselves stay fixed,
   because their quality figures are what the gate compares, and a seed
   that re-paired traces with minRTTs would move them by more than a
   useful bound. *)
let eval_links ~seed =
  let traces = Suite.all ~duration_ms:eval_trace_ms () in
  let links =
    List.mapi
      (fun i t -> Eval.link ~min_rtt_ms:(30 + (i mod 21)) ~bdp:2. t)
      traces
  in
  let k = seed mod List.length links in
  List.filteri (fun i _ -> i >= k) links @ List.filteri (fun i _ -> i < k) links

let result_bits (r : Eval.result) =
  [
    r.utilization;
    r.avg_thr_mbps;
    r.avg_qdelay_ms;
    r.p95_qdelay_ms;
    r.loss_rate;
    Option.value r.fcc ~default:(-1.);
    Option.value r.fcs ~default:(-1.);
  ]

type cell = { result : Eval.result; steps : int; reward : float; components : int }

let certified_cell policy link =
  let result, records =
    Eval.eval_policy ~certificate:(perf, eval_components) ~collect_steps:true
      ~policy ~history:5 link
  in
  {
    result;
    steps = List.length records;
    reward =
      List.fold_left (fun a (s : Eval.step_record) -> a +. s.raw_reward) 0. records;
    components =
      List.fold_left
        (fun a (s : Eval.step_record) ->
          match s.certificate with
          | Some c -> a + Array.length c.Certify.components
          | None -> a)
        0 records;
  }

(* Eval.eval_policy's step loop as [certified_cell] calls it (certificate
   on; no shield, noise, refutation or impairments), call for call, with
   a span around each layer: the forward pass, the certifier
   ([certify.mlp] or [certify.tree]) and the simulator step. The result
   is assembled as Eval assembles it, so the pass digest must match the
   untraced pass bit for bit. *)
let traced_cell sp policy name (link : Eval.link) =
  let history = 5 in
  let cfg =
    {
      (Agent_env.default_config ~trace:link.trace ~min_rtt_ms:link.min_rtt_ms
         ~buffer_pkts:
           (Canopy_cc.Runner.buffer_of_bdp ~bdp_multiplier:link.bdp_multiplier
              ~trace:link.trace ~min_rtt_ms:link.min_rtt_ms)
         ~duration_ms:link.duration_ms)
      with
      history;
    }
  in
  let env = Agent_env.create cfg in
  let xrow = Mat.create ~rows:1 ~cols:(Canopy.Policy.in_dim policy) in
  let yrow = Mat.create_uninit ~rows:1 ~cols:(Canopy.Policy.out_dim policy) in
  let fcc = ref 0. and fcs = ref 0 and steps = ref 0 in
  let reward = ref 0. and components = ref 0 in
  let finished = ref false in
  while not !finished do
    let s = Agent_env.state env in
    Array.blit s 0 (Mat.raw xrow) 0 (Array.length s);
    let t0 = now () in
    Canopy.Policy.predict_rows_into ~dst:yrow policy xrow;
    let t1 = now () in
    let action = clamp_action (Mat.raw yrow).(0) in
    let cwnd_tcp = Agent_env.cwnd_tcp env in
    let prev_cwnd = Agent_env.prev_cwnd_enforced env in
    let cert =
      match policy with
      | `Mlp actor ->
          Certify.certify ~engine:Certify.Batched ~actor ~property:perf
            ~n_components:eval_components ~history ~state:s ~cwnd_tcp ~prev_cwnd ()
      | `Tree tree ->
          Certify.certify_tree ~tree ~property:perf ~n_components:eval_components
            ~history ~state:s ~cwnd_tcp ~prev_cwnd ()
    in
    let t2 = now () in
    fcc := !fcc +. cert.Certify.fcc;
    if cert.Certify.fcs then incr fcs;
    components := !components + Array.length cert.Certify.components;
    incr steps;
    let res = Agent_env.step env ~action in
    let t3 = now () in
    reward := !reward +. res.raw_reward;
    finished := res.finished;
    span sp "policy.predict_rows" t0 t1;
    span sp ("certify." ^ name) t1 t2;
    span sp "orca.agent_env_step" t2 t3
  done;
  let qdelays = Agent_env.qdelay_array_ms env in
  let st = Agent_env.env_stats env in
  let n = float_of_int !steps in
  let result =
    {
      Eval.scheme = "canopy";
      trace = Canopy_trace.Trace.name link.trace;
      utilization = Agent_env.utilization env;
      avg_thr_mbps =
        float_of_int st.Canopy_netsim.Env.delivered
        *. float_of_int Canopy_netsim.Env.default_mtu *. 8. /. 1e6
        /. (float_of_int link.duration_ms /. 1000.);
      avg_qdelay_ms = Canopy_util.Stats.mean qdelays;
      p95_qdelay_ms =
        (if Array.length qdelays = 0 then 0.
         else Canopy_util.Stats.percentile qdelays 95.);
      loss_rate = Agent_env.loss_rate env;
      fcc = Some (!fcc /. n);
      fcs = Some (float_of_int !fcs /. n);
      refuted = None;
    }
  in
  add sp ("steps." ^ name) n;
  add sp ("components." ^ name) (float_of_int !components);
  { result; steps = !steps; reward = !reward; components = !components }

let tcp_cell link = Eval.eval_tcp ~name:"cubic" Eval.cubic_scheme link

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* One pass over the suite: per trace, the MLP and the tree with
   50-component certificates, then Cubic. With [sp], each policy cell is
   the traced replica of Eval.eval_policy. *)
let eval_pass ?sp inputs links =
  let cell_ms = ref [] and mlp = ref [] and tree = ref [] and bits = ref [] in
  let t0 = now () in
  List.iter
    (fun link ->
      let cell policy name =
        let c, dt =
          timed (fun () ->
              match sp with
              | None -> certified_cell policy link
              | Some sp -> traced_cell sp policy name link)
        in
        cell_ms := (1e3 *. dt) :: !cell_ms;
        Option.iter (fun sp -> add sp ("eval.policy_cell." ^ name) dt) sp;
        bits := (c.reward :: result_bits c.result) @ !bits;
        c
      in
      mlp := cell (`Mlp inputs.actor) "mlp" :: !mlp;
      tree := cell (`Tree inputs.tree) "tree" :: !tree;
      let r, dt = timed (fun () -> tcp_cell link) in
      cell_ms := (1e3 *. dt) :: !cell_ms;
      Option.iter (fun sp -> add sp "eval.tcp_cell" dt) sp;
      bits := result_bits r @ !bits)
    links;
  let wall = now () -. t0 in
  let mlp = !mlp and tree = !tree in
  let steps cs = List.fold_left (fun a c -> a + c.steps) 0 cs in
  let avg f = mean (List.map (fun c -> f c.result) mlp) in
  {
      setup_s = [];
      wall_s = wall;
      decisions = steps mlp + steps tree;
      units = List.length !cell_ms;
      unit_ms = List.rev !cell_ms;
      quality =
        [
          ("utilization", avg (fun r -> r.Eval.utilization));
          ("qdelay_ms", avg (fun r -> r.Eval.avg_qdelay_ms));
          ("p95_qdelay_ms", avg (fun r -> r.Eval.p95_qdelay_ms));
          ("loss_rate", avg (fun r -> r.Eval.loss_rate));
          ("fcc", avg (fun r -> Option.value r.Eval.fcc ~default:Float.nan));
          ("fcs", avg (fun r -> Option.value r.Eval.fcs ~default:Float.nan));
          ( "reward",
            List.fold_left (fun a c -> a +. c.reward) 0. mlp
            /. float_of_int (max 1 (steps mlp)) );
        ];
      digest = digest_floats (List.rev !bits);
  }

let eval_setup ~seed ~inputs_of =
  let (inputs, links), setup_s =
    timed_setup ~batch:1 (fun () -> (inputs_of (), eval_links ~seed))
  in
  (inputs, links, setup_s)

(* At least enough passes for the p95 cell latency to rest on ten
   samples beyond it (66 cells a pass). *)
let min_passes = 4

let run_evaluate ~seed ~seconds ~traced ~inputs_of =
  let pass () =
    fresh_heap ();
    calibrate ();
    let inputs, links, setup_s = eval_setup ~seed ~inputs_of in
    fresh_heap ();
    { (eval_pass inputs links) with setup_s }
  in
  if not traced then begin
    let n = max min_passes (repeats ~seconds ~per_repeat_s:2.5) in
    (List.init n (fun _ -> pass ()), [], [])
  end
  else begin
    let reference = pass () in
    let sp : spans = Hashtbl.create 16 in
    let inputs, links, setup_s = eval_setup ~seed ~inputs_of in
    let traced = eval_pass ~sp inputs links in
    let g = span_s sp in
    let wall = traced.wall_s in
    let cells = float_of_int traced.units in
    let n_links = float_of_int (List.length links) in
    let steps = g "steps.mlp" +. g "steps.tree" in
    let layer_spans =
      [
        "policy.predict_rows";
        "certify.mlp";
        "certify.tree";
        "orca.agent_env_step";
        "eval.tcp_cell";
      ]
    in
    let covered = List.fold_left (fun a n -> a +. g n) 0. layer_spans in
    ( [ reference; { traced with setup_s } ],
      [
        ( "certify.mlp.us_per_component",
          1e6 *. g "certify.mlp" /. g "components.mlp" );
        ( "certify.tree.us_per_component",
          1e6 *. g "certify.tree" /. g "components.tree" );
        ("certify.components", g "components.mlp" +. g "components.tree");
        ("orca.agent_env_step.ms", 1e3 *. g "orca.agent_env_step" /. steps);
        ("policy.ns_per_decision", 1e9 *. g "policy.predict_rows" /. steps);
        ("eval.tcp_cell.ms", 1e3 *. g "eval.tcp_cell" /. n_links);
        ( "eval.policy_cell.ms",
          1e3
          *. (g "eval.policy_cell.mlp" +. g "eval.policy_cell.tree")
          /. (2. *. n_links) );
        ("bench.unit.ms", 1e3 *. wall /. cells);
        ("bench.unattributed.ms", 1e3 *. (wall -. covered) /. cells);
        ("bench.trace_overhead_frac", (wall /. reference.wall_s) -. 1.);
      ],
      shares sp layer_spans wall )
  end

(* ------------------------------------------------------------------ *)
(* serve_clean: batched fleet serving *)

let serve_interval_ms = 40
let serve_ticks = 210

(* The fleet covers every pairing of a suite trace with a minRTT from a
   grid over 20-60 ms exactly once: 22 x 12 = 264 flows. A larger fleet
   makes longer repeats, and so fewer of them in a run for each tick to
   take its fastest latency from. *)
let rtt_grid = 12

(* Flow [i] serves pairing [serve_pair ~seed ~pairs i]: the seed sets
   where each pairing sits in the fleet, while the pairings themselves,
   and so the work and the quality figures, stay fixed. Buffers are 2 BDP
   and every flow decides on the same 40 ms tick. *)
let serve_pair ~seed ~pairs i = (i + (7 * seed)) mod pairs

let serve_configs ~seed =
  let duration_ms = serve_interval_ms * serve_ticks in
  let traces = Array.of_list (Suite.all ~duration_ms ()) in
  let nt = Array.length traces in
  let nr = rtt_grid in
  let pairs = nt * nr in
  Array.init pairs (fun i ->
      let p = serve_pair ~seed ~pairs i in
      let trace = traces.(p mod nt) in
      let min_rtt_ms = 20 + (40 * (p / nt) / (nr - 1)) in
      let buffer_pkts =
        Canopy_cc.Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace ~min_rtt_ms
      in
      {
        (Agent_env.default_config ~trace ~min_rtt_ms ~buffer_pkts ~duration_ms)
        with
        interval_ms = Some serve_interval_ms;
      })

let per_flow_bits (per_flow : Fleet_eval.flow_result array) =
  Array.to_list per_flow
  |> List.concat_map (fun (f : Fleet_eval.flow_result) ->
         [ f.throughput_mbps; f.avg_qdelay_ms; f.loss_rate; f.utilization; f.avg_reward ])

(* Decisions whose certificates are sampled after the episode: every
   [cert_tick_stride]-th tick of about [cert_flows] flows, chosen by
   pairing so every seed samples the same ones, each certified exactly
   as Eval certifies a step (state and previous window before the tick,
   the tick's pre-override Cubic window). *)
let cert_flows = 64
let cert_tick_stride = 5

let sampled_fcc actor samples =
  let certs =
    List.map
      (fun (state, prev_cwnd, cwnd_tcp) ->
        Certify.certify ~actor ~property:perf ~n_components:5 ~history:5 ~state
          ~cwnd_tcp ~prev_cwnd ())
      samples
  in
  ( mean (List.map (fun c -> c.Certify.fcc) certs),
    mean (List.map (fun c -> if c.Certify.fcs then 1. else 0.) certs) )

let serve_repeat ~seed ~inputs_of ~checked =
  fresh_heap ();
  calibrate ();
  let (inputs, env), setup_s =
    timed_setup ~batch:1 (fun () ->
        (inputs_of (), Fleet_env.create (serve_configs ~seed)))
  in
  let n = Fleet_env.flows env in
  let stride = max 1 (n / cert_flows) in
  let sampled =
    List.filter
      (fun i -> serve_pair ~seed ~pairs:n i mod stride = 0)
      (List.init n Fun.id)
  in
  let pending = ref [] and samples = ref [] in
  let stash () =
    pending :=
      List.map
        (fun i ->
          (i, Fleet_env.state env ~flow:i, Fleet_env.prev_cwnd_enforced env ~flow:i))
        sampled
  in
  stash ();
  let stamps = Array.make (serve_ticks + 1) 0. in
  fresh_heap ();
  let on_tick ~tick ~actions:_ ~result =
    stamps.(tick + 1) <- now ();
    if checked && tick mod cert_tick_stride = 0 then
      samples :=
        List.map
          (fun (i, s, prev) -> (s, prev, result.Fleet_env.cwnd_tcp.(i)))
          !pending
        @ !samples;
    if checked && (tick + 1) mod cert_tick_stride = 0 then stash ()
  in
  let t0 = now () in
  stamps.(0) <- t0;
  let r = Fleet_eval.serve ~on_tick ~policy:(`Mlp inputs.actor) env in
  let wall_s = now () -. t0 in
  let ticks = r.decision_ticks in
  let quality () =
    let fcc, fcs = sampled_fcc inputs.actor !samples in
    let qd =
      Array.map (fun (f : Fleet_eval.flow_result) -> f.avg_qdelay_ms) r.per_flow
    in
    [
      ("utilization", r.mean_utilization);
      ("qdelay_ms", r.mean_qdelay_ms);
      ("p95_qdelay_ms", Canopy_util.Stats.percentile qd 95.);
      ( "loss_rate",
        mean
          (Array.to_list
             (Array.map (fun (f : Fleet_eval.flow_result) -> f.loss_rate) r.per_flow)) );
      ("fcc", fcc);
      ("fcs", fcs);
      ( "reward",
        mean
          (Array.to_list
             (Array.map (fun (f : Fleet_eval.flow_result) -> f.avg_reward) r.per_flow)) );
    ]
  in
  ( inputs,
    {
      setup_s;
      wall_s;
      decisions = n * ticks;
      units = ticks;
      unit_ms = gaps_ms stamps ticks;
      quality = (if checked then quality () else []);
      digest = digest_floats (per_flow_bits r.per_flow);
    } )

(* Fleet_eval.serve's tick, call for call, with a span around each
   layer; returns the per-flow result digest, the loop wall, the spans
   and the fleet for the simulator's packet counts. *)
let traced_serve ~policy env =
  let sp : spans = Hashtbl.create 8 in
  let t_start = now () in
  let n = Fleet_env.flows env in
  let sd = Fleet_env.state_dim env in
  let x = Mat.create ~rows:n ~cols:sd in
  let y = Mat.create_uninit ~rows:n ~cols:1 in
  let actions = Array.make n 0. in
  let reward_sum = Array.make n 0. in
  let ticks = ref 0 in
  let finished = ref (Fleet_env.finished env) in
  while not !finished do
    let t0 = now () in
    Fleet_env.write_states env ~dst:x;
    let t1 = now () in
    Canopy.Policy.predict_rows_into ~dst:y policy x;
    let t2 = now () in
    let raw = Mat.raw y in
    for i = 0 to n - 1 do
      actions.(i) <- clamp_action raw.(i)
    done;
    let t3 = now () in
    let r = Fleet_env.step env ~actions in
    let t4 = now () in
    for i = 0 to n - 1 do
      reward_sum.(i) <- reward_sum.(i) +. r.Fleet_env.rewards.(i)
    done;
    incr ticks;
    finished := r.Fleet_env.finished;
    span sp "orca.write_states" t0 t1;
    span sp "policy.predict_rows" t1 t2;
    span sp "clamp" t2 t3;
    span sp "orca.fleet_env_step" t3 t4
  done;
  let wall = now () -. t_start in
  let fleet = Fleet_env.fleet env in
  let nt = float_of_int (max 1 !ticks) in
  let bits =
    List.concat
      (List.init n (fun i ->
           [
             Fleet.throughput_mbps fleet ~flow:i;
             Fleet.avg_qdelay_ms fleet ~flow:i;
             Fleet.loss_rate fleet ~flow:i;
             Fleet.utilization fleet ~flow:i;
             reward_sum.(i) /. nt;
           ]))
  in
  (digest_floats bits, wall, sp, !ticks, fleet)

let run_serve ~seed ~seconds ~traced ~inputs_of =
  if not traced then begin
    let n = repeats ~seconds ~per_repeat_s:1.75 in
    ( List.init n (fun i -> snd (serve_repeat ~seed ~inputs_of ~checked:(i = 0))),
      [],
      [] )
  end
  else begin
    let inputs, reference = serve_repeat ~seed ~inputs_of ~checked:true in
    let env = Fleet_env.create (serve_configs ~seed) in
    let digest, wall, sp, ticks, fleet =
      traced_serve ~policy:(`Mlp inputs.actor) env
    in
    let n = Fleet.flows fleet in
    let sum f = List.fold_left ( + ) 0 (List.init n (fun i -> f fleet ~flow:i)) in
    let sent = float_of_int (sum Fleet.sent) in
    let dropped = float_of_int (sum Fleet.dropped) in
    let g = span_s sp in
    let per_tick name = 1e3 *. g name /. float_of_int ticks in
    let tick_spans =
      [ "orca.write_states"; "policy.predict_rows"; "clamp"; "orca.fleet_env_step" ]
    in
    let covered = List.fold_left (fun a n -> a +. g n) 0. tick_spans in
    ( [ reference; { reference with digest; wall_s = wall } ],
      [
        ("orca.fleet_env_step.ms", per_tick "orca.fleet_env_step");
        ("orca.write_states.ms", per_tick "orca.write_states");
        ("policy.predict_rows.ms", per_tick "policy.predict_rows");
        ( "policy.ns_per_decision",
          1e9 *. g "policy.predict_rows" /. float_of_int (n * ticks) );
        ("netsim.ns_per_packet", 1e9 *. g "orca.fleet_env_step" /. sent);
        ( "netsim.ns_per_flow_ms",
          1e9 *. g "orca.fleet_env_step"
          /. float_of_int (n * Fleet.now_ms fleet) );
        ("netsim.packets_sent", sent);
        ("netsim.drop_frac", dropped /. sent);
        ("bench.unit.ms", 1e3 *. wall /. float_of_int ticks);
        ("bench.unattributed.ms", 1e3 *. (wall -. covered) /. float_of_int ticks);
        ("bench.trace_overhead_frac", (wall /. reference.wall_s) -. 1.);
      ],
      shares sp tick_spans wall )
  end

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: canopy_perf run --workload W --seed N --seconds S --trace 0|1 \
     --inputs DIR --actor-crc HEX --tree-crc HEX\n\
    \       canopy_perf regen --out DIR --seed N";
  exit 2

let rec parse_flags acc = function
  | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      parse_flags ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
  | [] -> acc
  | _ -> usage ()

let flag flags name =
  match List.assoc_opt name flags with Some v -> v | None -> usage ()

let int_flag flags name =
  match int_of_string_opt (flag flags name) with
  | Some n when n >= 0 -> n
  | _ -> usage ()

let run flags =
  let workload = flag flags "workload" in
  let seed = int_flag flags "seed" in
  let seconds = max 1 (int_flag flags "seconds") in
  let traced =
    match flag flags "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let dir = flag flags "inputs" in
  let actor_crc = flag flags "actor-crc" and tree_crc = flag flags "tree-crc" in
  let inputs_of () = load_inputs ~dir ~actor_crc ~tree_crc in
  (* The pool has a fixed size, recorded with the results: one domain. On
     a shared two-core host a second domain makes timings and peak memory
     depend on what else runs there, while every pool path is bit-identical
     to the one-domain path, so outputs do not change. *)
  let domains = 1 in
  let pool = Pool.create ~domains () in
  Pool.set_default pool;
  let repeats, layers, shares =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        match workload with
        | "train" -> run_train ~seconds ~traced
        | "evaluate" -> run_evaluate ~seed ~seconds ~traced ~inputs_of
        | "serve_clean" ->
            run_serve ~seed ~seconds ~traced ~inputs_of
        | w ->
            prerr_endline ("unknown workload " ^ w);
            exit 2)
  in
  let buf = Buffer.create 65_536 in
  write_json buf
    (O
       [
         ("workload", S workload);
         ("seed", I seed);
         ("traced", I (if traced then 1 else 0));
         ("domains", I domains);
         ("peak_heap_mb", F (peak_heap_mb ()));
         ("calib_ms", floats (List.rev !calib_ms));
         ("repeats", L (List.map repeat_json repeats));
         ("layers", O (List.map (fun (k, v) -> (k, F v)) layers));
         ("shares", O (List.map (fun (k, v) -> (k, F v)) shares));
       ]);
  print_endline (Buffer.contents buf)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (parse_flags [] rest)
  | _ :: "regen" :: rest ->
      let flags = parse_flags [] rest in
      regen ~out:(flag flags "out") ~seed:(int_flag flags "seed")
  | _ -> usage ()
