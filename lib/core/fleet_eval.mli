(** Batched policy serving over a fleet of links: one batched
    {!Policy.predict_rows_into} pass decides every flow's action each
    tick, with all serving matrices allocated once up front. *)

type flow_result = {
  throughput_mbps : float;
  avg_qdelay_ms : float;
  loss_rate : float;
  utilization : float;
  avg_reward : float;
}

type result = {
  flows : int;
  duration_ms : int;  (** simulated time actually run *)
  decision_ticks : int;
  jain : float;  (** Jain's index over per-flow throughput *)
  mean_utilization : float;
  mean_qdelay_ms : float;
  per_flow : flow_result array;
}

val serve :
  ?on_tick:
    (tick:int ->
    actions:float array ->
    result:Canopy_orca.Fleet_env.step_result ->
    unit) ->
  policy:Policy.t ->
  Canopy_orca.Fleet_env.t ->
  result
(** Drive the fleet env to episode end under [policy] (MLP actor or
    distilled tree). Each decision
    tick assembles every flow's state into one [flows × state_dim]
    matrix ([Fleet_env.write_states]), runs exactly one batched forward,
    clamps the raw outputs into [[-1,1]] and steps the whole fleet.
    [on_tick] observes each tick's actions and step result (e.g. to
    record trajectories); the arrays it receives are reused across
    ticks and must be copied if retained. Requires
    [Policy.in_dim policy = state_dim] and [out_dim = 1]. *)
