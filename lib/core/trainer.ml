let log_src = Logs.Src.create "canopy.trainer" ~doc:"certificate-in-the-loop training"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Agent_env = Canopy_orca.Agent_env
module Observation = Canopy_orca.Observation
module Td3 = Canopy_rl.Td3
module Agent_snapshot = Canopy_rl.Agent_snapshot
module Prng = Canopy_util.Prng
module Atomic_file = Canopy_util.Atomic_file
module Crc32 = Canopy_util.Crc32

type config = {
  seed : int;
  lambda : float;
  property : Property.t;
  engine : Certify.engine;
  n_components : int;
  history : int;
  hidden : int;
  total_steps : int;
  updates_per_step : int;
  envs : Agent_env.config list;
  log_every : int;
}

let default_config ?(seed = 42) ?(lambda = 0.25)
    ?(property = Property.performance ()) ?(n_components = 5)
    ?(total_steps = 4000) ~envs () =
  {
    seed;
    lambda;
    property;
    engine = Certify.Batched;
    n_components;
    history = 5;
    hidden = 64;
    total_steps;
    updates_per_step = 1;
    envs;
    log_every = 100;
  }

let env_pool ?(n = 8) ?(bw_range_mbps = (6., 192.)) ?(rtt_range_ms = (10, 200))
    ?(duration_ms = 10_000) ~seed () =
  if n <= 0 then invalid_arg "Trainer.env_pool: n";
  let bw_lo, bw_hi = bw_range_mbps in
  let rtt_lo, rtt_hi = rtt_range_ms in
  List.init n (fun i ->
      (* Stratified sampling, as in the paper's actor pool: env [i] draws
         bandwidth and RTT from the [i]-th of [n] equal strata, jittered
         by a PRNG derived purely from [(seed, i)] — [List.init]'s
         evaluation order is unspecified, so the stream must not be
         shared across envs. *)
      let rng = Prng.create ((seed * 1_000_003) + i) in
      let stratum u = (float_of_int i +. u) /. float_of_int n in
      let bw_frac = stratum (Prng.float rng 1.) in
      let rtt_frac = stratum (Prng.float rng 1.) in
      let bw = Canopy_util.Mathx.lerp bw_lo bw_hi bw_frac in
      let rtt =
        rtt_lo
        + int_of_float
            (rtt_frac *. float_of_int (rtt_hi - rtt_lo))
      in
      let trace =
        Canopy_trace.Trace.constant
          ~name:(Printf.sprintf "train-s%d-%02d-%gmbps-%dms" seed i bw rtt)
          ~duration_ms ~mbps:bw
      in
      let buffer_pkts =
        Canopy_cc.Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace
          ~min_rtt_ms:rtt
      in
      Agent_env.default_config ~trace ~min_rtt_ms:rtt ~buffer_pkts
        ~duration_ms)

type epoch = {
  epoch : int;
  steps : int;
  raw_reward : float;
  verifier_reward : float;
  combined_reward : float;
  fcc : float;
  rollbacks : int;
}

(* ------------------------------------------------------------------ *)
(* Curve serialization                                                 *)
(* ------------------------------------------------------------------ *)

let curve_to_string epochs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "epoch,steps,raw,verifier,combined,fcc,rollbacks\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%h,%h,%h,%h,%d\n" e.epoch e.steps e.raw_reward
           e.verifier_reward e.combined_reward e.fcc e.rollbacks))
    epochs;
  Buffer.contents buf

(* Strict: a malformed row aborts with a diagnostic naming the line, so a
   half-written curve file cannot masquerade as a short run. *)
let curve_of_string ~what s =
  let malformed lineno line =
    failwith
      (Printf.sprintf "Trainer.load_curve: %s: line %d: malformed row %S" what
         lineno line)
  in
  let parse_int lineno line s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> malformed lineno line
  in
  let parse_float lineno line s =
    match float_of_string_opt s with
    | Some x -> x
    | None -> malformed lineno line
  in
  let parse_row lineno line e st raw ver comb fcc rollbacks =
    {
      epoch = parse_int lineno line e;
      steps = parse_int lineno line st;
      raw_reward = parse_float lineno line raw;
      verifier_reward = parse_float lineno line ver;
      combined_reward = parse_float lineno line comb;
      fcc = parse_float lineno line fcc;
      rollbacks = parse_int lineno line rollbacks;
    }
  in
  let rows = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if String.trim line = "" then ()
      else
        match String.split_on_char ',' line with
        | "epoch" :: _ when lineno = 1 -> ()
        | [ e; st; raw; ver; comb; fcc; rb ] ->
            rows := parse_row lineno line e st raw ver comb fcc rb :: !rows
        | _ -> malformed lineno line)
    (String.split_on_char '\n' s);
  List.rev !rows

let save_curve epochs path = Atomic_file.write path (curve_to_string epochs)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_curve path = curve_of_string ~what:path (read_file path)

(* ------------------------------------------------------------------ *)
(* Config fingerprint                                                  *)
(* ------------------------------------------------------------------ *)

(* Canonical digest of everything that shapes a training trajectory.
   Stored in every snapshot and checked on resume: silently resuming a
   run under a different configuration would produce a curve that belongs
   to neither config. *)
let config_fingerprint cfg =
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "seed=%d;lambda=%h;property=%s;engine=%s;N=%d;history=%d;hidden=%d;steps=%d;ups=%d;log=%d"
    cfg.seed cfg.lambda
    (Format.asprintf "%a" Property.pp cfg.property)
    (match cfg.engine with
    | Certify.Batched -> "batched"
    | Certify.Per_slice -> "per-slice")
    cfg.n_components cfg.history cfg.hidden cfg.total_steps
    cfg.updates_per_step cfg.log_every;
  List.iter
    (fun (e : Agent_env.config) ->
      Printf.bprintf buf ";env=%s:%d:%d:%d:%d"
        (Canopy_trace.Trace.name e.trace)
        e.min_rtt_ms e.buffer_pkts e.duration_ms e.history)
    cfg.envs;
  Crc32.to_hex (Crc32.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Trainer progress (the state the agent snapshot does not cover)      *)
(* ------------------------------------------------------------------ *)

type progress = {
  p_step : int;
  p_epoch : int;
  p_rollbacks : int;
  p_raw : float;
  p_ver : float;
  p_comb : float;
  p_fcc : float;
  p_n : int;
  p_epochs : epoch list;  (* reversed accumulation order *)
}

let trainer_section p =
  Printf.sprintf "step %d\nepoch %d\nrollbacks %d\nacc %h %h %h %h %d\n"
    p.p_step p.p_epoch p.p_rollbacks p.p_raw p.p_ver p.p_comb p.p_fcc p.p_n

let parse_trainer_section ~what payload =
  let fail detail =
    failwith (Printf.sprintf "Trainer.train: %s: trainer section: %s" what detail)
  in
  let int s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail (Printf.sprintf "malformed integer %S" s)
  in
  let fl s =
    match float_of_string_opt s with
    | Some x -> x
    | None -> fail (Printf.sprintf "malformed float %S" s)
  in
  let words line =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun x -> x <> "")
  in
  match
    String.split_on_char '\n' payload |> List.filter (fun l -> String.trim l <> "")
  with
  | [ l1; l2; l3; l4 ] -> (
      match (words l1, words l2, words l3, words l4) with
      | ( [ "step"; s ],
          [ "epoch"; e ],
          [ "rollbacks"; rb ],
          [ "acc"; raw; ver; comb; fcc; n ] ) ->
          {
            p_step = int s;
            p_epoch = int e;
            p_rollbacks = int rb;
            p_raw = fl raw;
            p_ver = fl ver;
            p_comb = fl comb;
            p_fcc = fl fcc;
            p_n = int n;
            p_epochs = [];
          }
      | _ -> fail "unexpected layout")
  | _ -> fail "expected 4 lines"

(* ------------------------------------------------------------------ *)
(* The training loop                                                   *)
(* ------------------------------------------------------------------ *)

(* Consecutive rollbacks to the same snapshot (i.e. without reaching the
   next boundary) before the watchdog gives up: the reseeded exploration
   stream almost always steers past a one-off numerical fault, so
   exhausting this budget means the divergence is systematic. *)
let max_consecutive_rollbacks = 10

let train ?on_epoch ?snapshot_every ?snapshot_path ?resume ?fault_hook cfg =
  if cfg.envs = [] then invalid_arg "Trainer.train: empty env pool";
  Log.info (fun m ->
      m "training: lambda=%.2f %a N=%d steps=%d envs=%d hidden=%d" cfg.lambda
        Property.pp cfg.property cfg.n_components cfg.total_steps
        (List.length cfg.envs) cfg.hidden);
  if cfg.lambda < 0. || cfg.lambda > 1. then
    invalid_arg "Trainer.train: lambda";
  List.iter
    (fun (e : Agent_env.config) ->
      if e.history <> cfg.history then
        invalid_arg "Trainer.train: env history mismatch")
    cfg.envs;
  (match snapshot_every with
  | Some k when k <= 0 -> invalid_arg "Trainer.train: snapshot_every"
  | _ -> ());
  let watchdog = snapshot_every <> None in
  let snap_k = Option.value snapshot_every ~default:0 in
  if (snapshot_path <> None || resume <> None) && not watchdog then
    invalid_arg "Trainer.train: snapshot_path/resume require snapshot_every";
  let rng = Prng.create cfg.seed in
  let state_dim = cfg.history * Observation.feature_count in
  let td3_cfg =
    { (Td3.default_config ~state_dim ~action_dim:1) with hidden = cfg.hidden }
  in
  let agent = Td3.create ~rng:(Prng.split rng 0) td3_cfg in
  (* Pre-flight netcheck: a dimension mismatch or non-finite initial
     weight invalidates every certificate computed during training, so
     refuse to start. *)
  Canopy_analysis.Netcheck.assert_valid ~what:"actor (pre-training)"
    (Td3.actor agent);
  let fingerprint = config_fingerprint cfg in
  (* The env pool is rebuilt from config at every snapshot boundary (and
     on rollback/resume): env internals are not serializable, but
     [Agent_env.create] is deterministic from its config, so "fresh pool"
     is a state both an uninterrupted run and a resumed one can agree
     on bit-for-bit. *)
  let make_envs () =
    (* Each env is created and reset purely from its own config entry, so
       the boundary rebuild fans out over the domain pool; [Pool.map]
       preserves list order, keeping the pool bit-identical to the
       sequential rebuild at any domain count. *)
    Canopy_util.Pool.map
      (fun env_cfg ->
        let env = Agent_env.create env_cfg in
        ignore (Agent_env.reset env);
        env)
      (Array.of_list cfg.envs)
  in
  let envs = ref (make_envs ()) in
  let epochs = ref [] in
  let acc_raw = ref 0. and acc_ver = ref 0. and acc_comb = ref 0. in
  let acc_fcc = ref 0. and acc_n = ref 0 in
  let epoch_idx = ref 0 in
  let step = ref 0 in
  let rollbacks = ref 0 in
  (match resume with
  | None -> ()
  | Some path ->
      let fp, sections = Agent_snapshot.decode (Agent_snapshot.read path) in
      if fp <> fingerprint then
        failwith
          (Printf.sprintf
             "Trainer.train: %s: config fingerprint mismatch (snapshot %s, \
              config %s): refusing to resume under a different configuration"
             path fp fingerprint);
      Agent_snapshot.restore agent sections;
      let p =
        match List.assoc_opt "trainer" sections with
        | Some payload -> parse_trainer_section ~what:path payload
        | None ->
            failwith
              (Printf.sprintf "Trainer.train: %s: missing trainer section" path)
      in
      let curve =
        match List.assoc_opt "curve" sections with
        | Some payload -> curve_of_string ~what:path payload
        | None ->
            failwith
              (Printf.sprintf "Trainer.train: %s: missing curve section" path)
      in
      step := p.p_step;
      epoch_idx := p.p_epoch;
      rollbacks := p.p_rollbacks;
      acc_raw := p.p_raw;
      acc_ver := p.p_ver;
      acc_comb := p.p_comb;
      acc_fcc := p.p_fcc;
      acc_n := p.p_n;
      epochs := List.rev curve;
      envs := make_envs ();
      Log.info (fun m ->
          m "resumed from %s at step %d (epoch %d, %d rollbacks)" path !step
            !epoch_idx !rollbacks));
  let capture () =
    ( Td3.snapshot agent,
      {
        p_step = !step;
        p_epoch = !epoch_idx;
        p_rollbacks = !rollbacks;
        p_raw = !acc_raw;
        p_ver = !acc_ver;
        p_comb = !acc_comb;
        p_fcc = !acc_fcc;
        p_n = !acc_n;
        p_epochs = !epochs;
      } )
  in
  let persist p =
    match snapshot_path with
    | None -> ()
    | Some path ->
        let extra =
          [
            ("trainer", trainer_section p);
            ("curve", curve_to_string (List.rev !epochs));
          ]
        in
        Agent_snapshot.write ~path (Agent_snapshot.encode ~fingerprint ~extra agent)
  in
  let last_good = ref None in
  let consecutive_faults = ref 0 in
  if watchdog then begin
    let snap, p = capture () in
    last_good := Some (snap, p);
    persist p
  end;
  while !step < cfg.total_steps do
    step := !step + 1;
    let env = (!envs).(!step mod Array.length !envs) in
    let s = Agent_env.state env in
    let action_vec = Td3.select_action ~explore:true agent s in
    let action = action_vec.(0) in
    (* Certificate of the current policy in the current context,
       computed before the action is applied (Section 4.3). *)
    let cert =
      Certify.certify ~engine:cfg.engine ~actor:(Td3.actor agent)
        ~property:cfg.property
        ~n_components:cfg.n_components ~history:cfg.history ~state:s
        ~cwnd_tcp:(Agent_env.cwnd_tcp env)
        ~prev_cwnd:(Agent_env.prev_cwnd_enforced env) ()
    in
    let res = Agent_env.step env ~action in
    let reward =
      ((1. -. cfg.lambda) *. res.raw_reward)
      +. (cfg.lambda *. cert.r_verifier)
    in
    Td3.observe agent
      {
        Canopy_rl.Replay_buffer.state = s;
        action = action_vec;
        reward;
        next_state = res.state;
        (* Agent_env episodes end only when the trace's [duration_ms]
           elapses — a time-limit truncation, not an absorbing state of
           the congestion-control MDP — so TD targets must keep
           bootstrapping through it (see Replay_buffer.transition). *)
        terminal = false;
        truncated = res.finished;
      };
    for _ = 1 to cfg.updates_per_step do
      Td3.update agent
    done;
    (match fault_hook with Some f -> f ~step:!step agent | None -> ());
    let boundary =
      watchdog && (!step mod snap_k = 0 || !step = cfg.total_steps)
    in
    let healthy =
      (not watchdog)
      || Td3.finite agent
         && (not boundary
            || Canopy_analysis.Netcheck.check_mlp ~name:"actor" (Td3.actor agent)
               = [])
    in
    if not healthy then begin
      (* Divergence: rewind to the last good snapshot and retry the
         segment under a decorrelated exploration stream. [rollbacks] is
         cumulative run history, deliberately outside the rolled-back
         state. *)
      rollbacks := !rollbacks + 1;
      consecutive_faults := !consecutive_faults + 1;
      if !consecutive_faults > max_consecutive_rollbacks then
        failwith
          (Printf.sprintf
             "Trainer.train: divergence watchdog: %d consecutive rollbacks \
              without reaching the next snapshot boundary; the divergence is \
              systematic, not transient"
             !consecutive_faults);
      (match !last_good with
      | None -> assert false (* watchdog implies an initial capture *)
      | Some (snap, p) ->
          Log.warn (fun m ->
              m
                "divergence at step %d: non-finite parameters; rolling back \
                 to step %d (rollback %d)"
                !step p.p_step !rollbacks);
          Td3.restore agent snap;
          Td3.reseed agent ~salt:!rollbacks;
          step := p.p_step;
          epoch_idx := p.p_epoch;
          acc_raw := p.p_raw;
          acc_ver := p.p_ver;
          acc_comb := p.p_comb;
          acc_fcc := p.p_fcc;
          acc_n := p.p_n;
          epochs := p.p_epochs;
          envs := make_envs ())
    end
    else begin
      if res.finished then ignore (Agent_env.reset env);
      acc_raw := !acc_raw +. res.raw_reward;
      acc_ver := !acc_ver +. cert.r_verifier;
      acc_comb := !acc_comb +. reward;
      acc_fcc := !acc_fcc +. cert.fcc;
      incr acc_n;
      if !step mod cfg.log_every = 0 || !step = cfg.total_steps then begin
        let n = float_of_int !acc_n in
        incr epoch_idx;
        let e =
          {
            epoch = !epoch_idx;
            steps = !step;
            raw_reward = !acc_raw /. n;
            verifier_reward = !acc_ver /. n;
            combined_reward = !acc_comb /. n;
            fcc = !acc_fcc /. n;
            rollbacks = !rollbacks;
          }
        in
        epochs := e :: !epochs;
        Log.debug (fun m ->
            m "epoch %d (step %d): raw=%.3f verifier=%.3f combined=%.3f fcc=%.3f"
              e.epoch e.steps e.raw_reward e.verifier_reward e.combined_reward
              e.fcc);
        (match on_epoch with Some f -> f e | None -> ());
        acc_raw := 0.;
        acc_ver := 0.;
        acc_comb := 0.;
        acc_fcc := 0.;
        acc_n := 0
      end;
      if boundary then begin
        consecutive_faults := 0;
        let snap, p = capture () in
        last_good := Some (snap, p);
        persist p;
        envs := make_envs ()
      end
    end
  done;
  (agent, List.rev !epochs)

let save_actor agent path = Canopy_nn.Checkpoint.save (Td3.actor agent) path

let load_actor path =
  let net = Agent_snapshot.actor_of_file path in
  (* Evaluation and certification must not run over a corrupt
     checkpoint: validate shapes and finiteness before handing it out. *)
  Canopy_analysis.Netcheck.assert_valid ~what:path net;
  net

(* The cache entry is the actor, its curve and the fingerprint of the
   config that trained them. The fingerprint is removed before a retrain
   and written last, so a crash mid-write leaves an entry that retrains. *)
let cache_file ~cache_dir ~tag ext = Filename.concat cache_dir (tag ^ ext)

let cache_hit ~cache_dir ~tag cfg =
  let file = cache_file ~cache_dir ~tag in
  List.for_all Sys.file_exists
    [ file ".actor.ckpt"; file ".curve.csv"; file ".fp" ]
  && String.trim (read_file (file ".fp")) = config_fingerprint cfg

let load_or_train ~cache_dir ~tag cfg =
  let file = cache_file ~cache_dir ~tag in
  let path = file ".actor.ckpt" and curve_path = file ".curve.csv" in
  let fp_path = file ".fp" in
  if cache_hit ~cache_dir ~tag cfg then (load_actor path, load_curve curve_path)
  else begin
    let agent, epochs = train cfg in
    Atomic_file.mkdir_p cache_dir;
    if Sys.file_exists fp_path then Sys.remove fp_path;
    save_actor agent path;
    save_curve epochs curve_path;
    Atomic_file.write fp_path (config_fingerprint cfg ^ "\n");
    (Canopy_rl.Td3.actor agent, epochs)
  end
