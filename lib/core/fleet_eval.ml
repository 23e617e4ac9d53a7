(* Batched policy serving over a [Canopy_orca.Fleet_env]: the decision
   loop that turns N per-flow inferences per tick into one
   [flows × state_dim] matrix assembly and exactly one batched
   [Policy.predict_rows_into] pass (a GEMM for the MLP, a pool-chunked
   compare chain for the distilled tree). The matrices are allocated
   once; [Fleet_env.step] still allocates its three result arrays and
   one [Observation.t] per agent flow each tick, and the link path
   below it allocates more (DESIGN §12). *)

module Fleet = Canopy_netsim.Fleet
module Fleet_env = Canopy_orca.Fleet_env
module Mat = Canopy_tensor.Mat
module Stats = Canopy_util.Stats

type flow_result = {
  throughput_mbps : float;
  avg_qdelay_ms : float;
  loss_rate : float;
  utilization : float;
  avg_reward : float;
}

type result = {
  flows : int;
  duration_ms : int;
  decision_ticks : int;
  jain : float;
  mean_utilization : float;
  mean_qdelay_ms : float;
  per_flow : flow_result array;
}

let clamp_action = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

let serve ?on_tick ~policy env =
  let n = Fleet_env.flows env in
  let sd = Fleet_env.state_dim env in
  if Policy.in_dim policy <> sd then
    invalid_arg "Fleet_eval.serve: policy in_dim";
  if Policy.out_dim policy <> 1 then
    invalid_arg "Fleet_eval.serve: policy out_dim";
  let x = Mat.create ~rows:n ~cols:sd in
  let y = Mat.create_uninit ~rows:n ~cols:1 in
  let actions = Array.make n 0. in
  let reward_sum = Array.make n 0. in
  let ticks = ref 0 in
  let finished = ref (Fleet_env.finished env) in
  while not !finished do
    Fleet_env.write_states env ~dst:x;
    (* The whole fleet's decisions in one batched pass. *)
    Policy.predict_rows_into ~dst:y policy x;
    let raw = Mat.raw y in
    for i = 0 to n - 1 do
      actions.(i) <- clamp_action raw.(i)
    done;
    let r = Fleet_env.step env ~actions in
    for i = 0 to n - 1 do
      reward_sum.(i) <- reward_sum.(i) +. r.Fleet_env.rewards.(i)
    done;
    incr ticks;
    (match on_tick with
    | Some f -> f ~tick:(!ticks - 1) ~actions ~result:r
    | None -> ());
    finished := r.Fleet_env.finished
  done;
  let fleet = Fleet_env.fleet env in
  let nt = float_of_int (max 1 !ticks) in
  let per_flow =
    Array.init n (fun i ->
        {
          throughput_mbps = Fleet.throughput_mbps fleet ~flow:i;
          avg_qdelay_ms = Fleet.avg_qdelay_ms fleet ~flow:i;
          loss_rate = Fleet.loss_rate fleet ~flow:i;
          utilization = Fleet.utilization fleet ~flow:i;
          avg_reward = reward_sum.(i) /. nt;
        })
  in
  {
    flows = n;
    duration_ms = Fleet.now_ms fleet;
    decision_ticks = !ticks;
    jain = Stats.jain_index (Array.map (fun f -> f.throughput_mbps) per_flow);
    mean_utilization = Stats.mean (Array.map (fun f -> f.utilization) per_flow);
    mean_qdelay_ms = Stats.mean (Array.map (fun f -> f.avg_qdelay_ms) per_flow);
    per_flow;
  }
