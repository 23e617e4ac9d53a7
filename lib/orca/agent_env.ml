module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet

type config = Fleet_env.config = {
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

let default_config ~trace ~min_rtt_ms ~buffer_pkts ~duration_ms =
  {
    trace;
    min_rtt_ms;
    buffer_pkts;
    duration_ms;
    history = 5;
    interval_ms = None;
    delay_noise = None;
    impairments = Env.no_impairments;
    reward = Reward.default_config;
  }

let state_dim cfg = cfg.history * Observation.feature_count

type t = { cfg : config; mutable fenv : Fleet_env.t }

let create cfg = { cfg; fenv = Fleet_env.create [| cfg |] }
let interval_ms t = Fleet_env.interval_ms t.fenv
let state t = Fleet_env.state t.fenv ~flow:0

let reset t =
  t.fenv <- Fleet_env.create [| t.cfg |];
  state t

type step_result = {
  state : float array;
  raw_reward : float;
  observation : Observation.t;
  cwnd_tcp : float;
  cwnd_enforced : float;
  finished : bool;
}

let step t ~action =
  let observation = ref None in
  let r =
    Fleet_env.step t.fenv ~actions:[| action |] ~observe:(fun _ obs ->
        observation := Some obs)
  in
  {
    state = state t;
    raw_reward = r.rewards.(0);
    observation = Option.get !observation;
    cwnd_tcp = r.cwnd_tcp.(0);
    cwnd_enforced = r.cwnd_enforced.(0);
    finished = r.finished;
  }

let fleet t = Fleet_env.fleet t.fenv
let prev_cwnd_enforced t = Fleet_env.prev_cwnd_enforced t.fenv ~flow:0
let cwnd_tcp t = Fleet_env.cwnd_tcp t.fenv ~flow:0
let env_stats t = Fleet.stats (fleet t) ~flow:0
let utilization t = Fleet.utilization (fleet t) ~flow:0
let qdelay_array_ms t = Fleet.qdelay_array_ms (fleet t) ~flow:0
let avg_qdelay_ms t = Fleet.avg_qdelay_ms (fleet t) ~flow:0
let qdelay_percentile_ms t p = Fleet.qdelay_percentile_ms (fleet t) ~flow:0 p
let loss_rate t = Fleet.loss_rate (fleet t) ~flow:0
let thr_scale_mbps t = Fleet_env.thr_scale_mbps t.fenv ~flow:0
