(* The Orca episode, vectorized: N episodes over one
   [Canopy_netsim.Fleet], with the observation assembly batched into a
   flat [n × history × feature_count] block so a decision tick can hand
   every flow's state to the policy as one [n × state_dim] matrix (one
   GEMM serves the whole fleet). [Agent_env] is the one-flow view.

   A step first validates every agent flow's action, so a rejected step
   changes nothing. Then per agent flow it reads the Cubic backbone,
   enforces Eq. 1's window (only once the flow sends during the
   interval: before that no ACK refreshes the window, and decisions
   would compound on it), advances the link one interval with Cubic
   refreshing the live window after every millisecond, takes the monitor
   observation, updates the throughput scale, pushes the feature frame
   and scores the reward. A plain flow only runs its own controller,
   which refreshes its window the same way. The per-millisecond work
   runs inside the fleet's pool chunks; every mutable cell involved
   (controller, monitor, history slice, reward) is owned by exactly one
   flow, so flows on separate links are independent and an N-flow fleet
   of N links reproduces N one-flow fleets bit-for-bit. *)

module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet
module Mat = Canopy_tensor.Mat

type config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  buffer_pkts : int;
  duration_ms : int;
  history : int;
  interval_ms : int option;
  delay_noise : (Canopy_util.Prng.t * float) option;
  impairments : Env.impairments;
  reward : Reward.config;
}

let interval_of cfg =
  match cfg.interval_ms with
  | Some ms ->
      if ms <= 0 then invalid_arg "Fleet_env.create: interval";
      ms
  | None -> Int.max 20 cfg.min_rtt_ms

let max_enforced = 50_000.
let min_enforced = 2.

(* Eq. 1 plus the window clamp the simulator enforces; the verifier lifts
   exactly this map so certificates speak about deployed behaviour. *)
let cwnd_of_action ~action ~cwnd_tcp =
  Canopy_util.Mathx.clamp ~lo:min_enforced ~hi:max_enforced
    (Canopy_util.Mathx.pow2 (2. *. action) *. cwnd_tcp)

type t = {
  cfgs : config array;
  n : int;
  history : int;
  interval_ms : int;
  duration_ms : int;
  state_dim : int;
  fleet : Fleet.t;
  cubic : Canopy_cc.Cubic.t array;
  (* [Some c]: a plain flow run by [c] alone; its agent cells are unused. *)
  plain : Canopy_cc.Controller.t option array;
  start_ms : int array; (* a copy of [?start_ms] (zeros by default) *)
  monitor : Monitor.t array;
  reward : Reward.t array;
  handlers : Env.handlers array;
  after_tick : int -> unit;
  (* Flat history block: flow i's frame f lives at
     [(i*history + f) * feature_count]; [hist_head.(i)] is the index of
     flow i's oldest frame (frames are a per-flow ring). *)
  hist : float array;
  hist_head : int array;
  thr_scale : float array;
  prev_cwnd : float array;
  mutable finished : bool;
}

let create ?link ?start_ms ?plain (cfgs : config array) =
  let n = Array.length cfgs in
  if n = 0 then invalid_arg "Fleet_env.create: no envs";
  let plain =
    match plain with
    | None -> Array.make n None
    | Some p ->
        if Array.length p <> n then invalid_arg "Fleet_env.create: plain";
        p
  in
  Array.iter
    (fun (cfg : config) ->
      if cfg.history <= 0 then invalid_arg "Fleet_env.create: history";
      if cfg.duration_ms <= 0 then invalid_arg "Fleet_env.create: duration")
    cfgs;
  (* One batched decision tick serves every flow, so the decision
     cadence, episode length and state shape must agree across flows. *)
  let history = cfgs.(0).history in
  let interval_ms = interval_of cfgs.(0) in
  let duration_ms = cfgs.(0).duration_ms in
  Array.iter
    (fun (cfg : config) ->
      if cfg.history <> history then
        invalid_arg "Fleet_env.create: heterogeneous history";
      if interval_of cfg <> interval_ms then
        invalid_arg "Fleet_env.create: heterogeneous interval";
      if cfg.duration_ms <> duration_ms then
        invalid_arg "Fleet_env.create: heterogeneous duration")
    cfgs;
  let fleet =
    Fleet.create ?start_ms ?link
      (Array.map
         (fun (cfg : config) ->
           {
             Env.trace = cfg.trace;
             min_rtt_ms = cfg.min_rtt_ms;
             buffer_pkts = cfg.buffer_pkts;
             mtu_bytes = Env.default_mtu;
             initial_cwnd = 10.;
             impairments = cfg.impairments;
           })
         cfgs)
  in
  let cubic = Array.init n (fun _ -> Canopy_cc.Cubic.create ()) in
  let monitor =
    Array.map
      (fun (cfg : config) ->
        Monitor.create ?delay_noise:cfg.delay_noise ~min_rtt_ms:cfg.min_rtt_ms
          ())
      cfgs
  in
  (* One closure per event kind and flow calls the backbone and then the
     monitor directly, so a run passes through no intermediate closure
     (DESIGN §12, "The per-packet path"). The two share no state, so
     Cubic taking the whole run before the monitor does leaves both as
     a per-ACK interleaving would. A plain flow's controller takes its
     runs alone. *)
  let handlers =
    Array.init n (fun i ->
        let cubic = cubic.(i) and monitor = monitor.(i) in
        match plain.(i) with
        | Some c -> Canopy_cc.Controller.handlers c
        | None ->
            {
              Env.on_acks =
                (fun ~now_ms ~rtt_ms ~first_seq ~count ~delivered ->
                  Canopy_cc.Cubic.on_acks cubic ~now_ms ~rtt_ms ~first_seq
                    ~count ~delivered;
                  Monitor.on_acks monitor ~now_ms ~rtt_ms ~first_seq ~count
                    ~delivered);
              on_loss =
                (fun ~now_ms ~count ->
                  Canopy_cc.Cubic.on_loss cubic ~now_ms ~count;
                  Monitor.on_loss monitor ~now_ms ~count);
            })
  in
  let after_tick i =
    match plain.(i) with
    | None -> Fleet.set_cwnd fleet ~flow:i (Canopy_cc.Cubic.cwnd cubic.(i))
    | Some c -> Fleet.set_cwnd fleet ~flow:i (c.Canopy_cc.Controller.cwnd ())
  in
  {
    cfgs;
    n;
    history;
    interval_ms;
    duration_ms;
    state_dim = history * Observation.feature_count;
    fleet;
    cubic;
    plain;
    start_ms =
      (match start_ms with Some s -> Array.copy s | None -> Array.make n 0);
    monitor;
    reward =
      Array.map (fun (cfg : config) -> Reward.create ~config:cfg.reward ()) cfgs;
    handlers;
    after_tick;
    hist = Array.make (n * history * Observation.feature_count) 0.;
    hist_head = Array.make n 0;
    thr_scale = Array.make n 0.;
    prev_cwnd = Array.make n 10.;
    finished = false;
  }

let flows t = t.n
let interval_ms t = t.interval_ms
let state_dim t = t.state_dim
let fleet t = t.fleet
let finished t = t.finished
let now_ms t = Fleet.now_ms t.fleet
let thr_scale_mbps t ~flow = t.thr_scale.(flow)
let prev_cwnd_enforced t ~flow = t.prev_cwnd.(flow)
let cwnd_tcp t ~flow = Canopy_cc.Cubic.cwnd t.cubic.(flow)

let fc = Observation.feature_count

(* Oldest-first frame order. *)
let write_state_row t i dst off =
  let hbase = i * t.history * fc in
  let head = t.hist_head.(i) in
  for f = 0 to t.history - 1 do
    let src = hbase + ((head + f) mod t.history * fc) in
    Array.blit t.hist src dst (off + (f * fc)) fc
  done

let state t ~flow =
  let dst = Array.make t.state_dim 0. in
  write_state_row t flow dst 0;
  dst

let write_states t ~dst =
  if Mat.rows dst <> t.n || Mat.cols dst <> t.state_dim then
    invalid_arg "Fleet_env.write_states: shape";
  let raw = Mat.raw dst in
  for i = 0 to t.n - 1 do
    write_state_row t i raw (i * t.state_dim)
  done

type step_result = {
  rewards : float array;
  cwnd_tcp : float array;
  cwnd_enforced : float array;
  finished : bool;
}

let step ?observe ?ms (t : t) ~actions =
  if t.finished then invalid_arg "Fleet_env.step: episode finished";
  if Array.length actions <> t.n then invalid_arg "Fleet_env.step: actions";
  let ms = Option.value ms ~default:t.interval_ms in
  if ms <= 0 || ms > t.interval_ms then invalid_arg "Fleet_env.step: ms";
  for i = 0 to t.n - 1 do
    if Option.is_none t.plain.(i) then begin
      let action = actions.(i) in
      if Float.is_nan action || action < -1. || action > 1. then
        invalid_arg "Fleet_env.step: action out of range"
    end
  done;
  let cwnd_tcp = Array.make t.n 0. in
  let cwnd_enforced = Array.make t.n 0. in
  (* The interval's ticks run at [now + 1 .. now + ms]. *)
  let last_tick = Fleet.now_ms t.fleet + ms in
  for i = 0 to t.n - 1 do
    match t.plain.(i) with
    | Some _ -> ()
    | None ->
        let tcp = Canopy_cc.Cubic.cwnd t.cubic.(i) in
        let enforced =
          if t.start_ms.(i) > last_tick then tcp
          else begin
            let w = cwnd_of_action ~action:actions.(i) ~cwnd_tcp:tcp in
            Canopy_cc.Cubic.force_cwnd t.cubic.(i) w;
            Fleet.set_cwnd t.fleet ~flow:i w;
            w
          end
        in
        cwnd_tcp.(i) <- tcp;
        cwnd_enforced.(i) <- enforced
  done;
  Fleet.run ~after_tick:t.after_tick t.fleet t.handlers ~ms;
  let now = Fleet.now_ms t.fleet in
  let rewards = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    match t.plain.(i) with
    | Some _ -> ()
    | None ->
        let obs =
          Monitor.take t.monitor.(i) ~now_ms:now ~cwnd_pkts:cwnd_enforced.(i)
        in
        (match observe with Some f -> f i obs | None -> ());
        t.thr_scale.(i) <- Float.max t.thr_scale.(i) obs.Observation.thr_mbps;
        (* Overwrite the oldest frame in place and advance the ring head. *)
        let off = (i * t.history * fc) + (t.hist_head.(i) * fc) in
        Observation.features_into ~thr_scale_mbps:t.thr_scale.(i) obs
          ~dst:t.hist ~off;
        t.hist_head.(i) <- (t.hist_head.(i) + 1) mod t.history;
        rewards.(i) <- Reward.of_observation t.reward.(i) obs;
        t.prev_cwnd.(i) <- cwnd_enforced.(i)
  done;
  if now >= t.duration_ms then t.finished <- true;
  { rewards; cwnd_tcp; cwnd_enforced; finished = t.finished }
