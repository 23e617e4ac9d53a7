open Canopy_nn
open Canopy_tensor
module Prng = Canopy_util.Prng

type config = {
  state_dim : int;
  action_dim : int;
  hidden : int;
  gamma : float;
  tau : float;
  actor_lr : float;
  critic_lr : float;
  batch_size : int;
  buffer_capacity : int;
  warmup : int;
}

(* TD3's standard smoothing and delay: target-policy noise std 0.2
   clipped at 0.5, the actor and the targets every second update, and
   behaviour noise std 0.1. *)
let policy_noise = 0.2
let noise_clip = 0.5
let policy_delay = 2
let exploration_noise = 0.1

let default_config ~state_dim ~action_dim =
  {
    state_dim;
    action_dim;
    hidden = 64;
    gamma = 0.99;
    tau = 0.005;
    actor_lr = 1e-3;
    critic_lr = 1e-3;
    batch_size = 64;
    buffer_capacity = 50_000;
    warmup = 256;
  }

type t = {
  cfg : config;
  rng : Prng.t;
  actor : Mlp.t;
  actor_target : Mlp.t;
  critic1 : Mlp.t;
  critic2 : Mlp.t;
  critic1_target : Mlp.t;
  critic2_target : Mlp.t;
  opt_actor : Optimizer.t;
  opt_critic1 : Optimizer.t;
  opt_critic2 : Optimizer.t;
  mutable buffer : Replay_buffer.t;
  mutable update_calls : int;
  critic1_shards : shards;
  critic2_shards : shards;
  actor_params : (float array * float array) list;
  ws : workspace;
}

(* Per-shard gradient shadows of a critic (parameters shared,
   accumulators private), one per shard of a [batch_size] batch, with
   each shard's sample rows and, per shadow, its gradient arrays in
   [Mlp.params] order. The critics' parameter arrays are mutated only in
   place (assign, soft_update, optimizer steps), so the shadows never go
   stale. *)
and shards = {
  plan : (int * int * Mlp.t) array;  (* (lo, hi, shadow) *)
  grads : float array array array;
  params : (float array * float array) list;  (* the first shadow's *)
}

(* Every matrix a batched update writes, built once by [create] from
   [batch_size]: the minibatch rows, the target pass's inputs and
   outputs, the Bellman targets, the critic input (a fit's, then the
   actor step's), the policy-gradient seed and action gradients, and one
   training workspace per trained net, so the tapes and gradients of a
   steady-state update allocate nothing. The critic-1 workspace serves
   its fit and then the actor step's conduit pass, whose forward begins
   after the fit's tape is spent. *)
and workspace = {
  states : Mat.t;  (* batch × state_dim *)
  next_states : Mat.t;  (* batch × state_dim *)
  next_actions : Mat.t;  (* batch × action_dim, the target actor's *)
  next_inputs : Mat.t;  (* batch × (state_dim + action_dim) *)
  next_q1 : Mat.t;  (* batch × 1 *)
  next_q2 : Mat.t;  (* batch × 1 *)
  targets : float array;  (* batch *)
  inputs : Mat.t;  (* batch × (state_dim + action_dim) *)
  dout : Mat.t;  (* batch × 1 *)
  daction : Mat.t;  (* batch × action_dim *)
  actor_ws : Mlp.workspace;
  critic1_ws : Mlp.workspace;
  critic2_ws : Mlp.workspace;
}

(* ------------------------------------------------------------------ *)
(* Data-parallel critic fits.                                          *)
(*                                                                     *)
(* The batch is cut into fixed 16-row shards, the last one partial; a  *)
(* batch under 32 rows is one shard. A fit runs its forward and        *)
(* backward once over the whole batch, and only the weight-gradient    *)
(* sums split: each shard's rows sum into a gradient shadow of the     *)
(* critic, and the shard gradients are then combined by a pairwise     *)
(* stride-doubling tree whose shape depends only on the shard count.   *)
(* The shard count is a pure function of the batch size — never the    *)
(* pool width — and a critic's forward/backward is row-local (dense +  *)
(* leaky-relu only, no batch statistics), so each shadow gets the bits *)
(* of a pass over a copy of its rows, and results are bit-identical at *)
(* any domain count (DESIGN §10).                                      *)
(* ------------------------------------------------------------------ *)

let shard_rows = 16

let shard_count n =
  if n < 2 * shard_rows then 1 else (n + shard_rows - 1) / shard_rows

let make_shards critic n =
  let nshards = shard_count n in
  let plan =
    Array.init nshards (fun s ->
        ( s * shard_rows,
          (if s = nshards - 1 then n else (s + 1) * shard_rows),
          Mlp.grad_shadow critic ))
  in
  let grads =
    Array.map
      (fun (_, _, shadow) -> Array.of_list (List.map snd (Mlp.params shadow)))
      plan
  in
  let _, _, first = plan.(0) in
  { plan; grads; params = Mlp.params first }

let make_workspace cfg ~actor ~critic1 ~critic2 =
  let n = cfg.batch_size and sd = cfg.state_dim and ad = cfg.action_dim in
  let mat cols = Mat.create ~rows:n ~cols in
  {
    states = mat sd;
    next_states = mat sd;
    next_actions = mat ad;
    next_inputs = mat (sd + ad);
    next_q1 = mat 1;
    next_q2 = mat 1;
    targets = Array.make n 0.;
    inputs = mat (sd + ad);
    dout = mat 1;
    daction = mat ad;
    actor_ws = Mlp.workspace actor;
    critic1_ws = Mlp.workspace critic1;
    critic2_ws = Mlp.workspace critic2;
  }

let create ~rng cfg =
  if cfg.state_dim <= 0 || cfg.action_dim <= 0 then
    invalid_arg "Td3.create: dims";
  if cfg.batch_size <= 0 then invalid_arg "Td3.create: batch_size";
  let actor =
    Mlp.actor ~rng ~in_dim:cfg.state_dim ~hidden:cfg.hidden
      ~out_dim:cfg.action_dim
  in
  let critic () =
    Mlp.critic ~rng ~state_dim:cfg.state_dim ~action_dim:cfg.action_dim
      ~hidden:cfg.hidden
  in
  let critic1 = critic () and critic2 = critic () in
  {
    cfg;
    rng;
    actor;
    actor_target = Mlp.copy actor;
    critic1;
    critic2;
    critic1_target = Mlp.copy critic1;
    critic2_target = Mlp.copy critic2;
    opt_actor = Optimizer.adam ~lr:cfg.actor_lr ();
    opt_critic1 = Optimizer.adam ~lr:cfg.critic_lr ();
    opt_critic2 = Optimizer.adam ~lr:cfg.critic_lr ();
    buffer = Replay_buffer.create ~capacity:cfg.buffer_capacity;
    update_calls = 0;
    critic1_shards = make_shards critic1 cfg.batch_size;
    critic2_shards = make_shards critic2 cfg.batch_size;
    (* The actor's arrays are only ever written in place. *)
    actor_params = Mlp.params actor;
    ws = make_workspace cfg ~actor ~critic1 ~critic2;
  }

let actor t = t.actor
let buffer_size t = Replay_buffer.length t.buffer
let updates_done t = t.update_calls

let clamp_action = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

let select_action ?(explore = false) t state =
  let a = Mlp.forward t.actor state in
  if explore then
    Array.map
      (fun x ->
        clamp_action
          (x +. Prng.gaussian_scaled t.rng ~mu:0. ~sigma:exploration_noise))
      a
  else Array.map clamp_action a

let observe t tr =
  if Array.length tr.Replay_buffer.state <> t.cfg.state_dim then
    invalid_arg "Td3.observe: state dim";
  Replay_buffer.add t.buffer tr

(* Q-value of a single (state, action) pair under a critic, eval mode. *)
let q_eval critic state action =
  (Mlp.forward critic (Array.append state action)).(0)

let q_values t ~state ~action =
  (q_eval t.critic1 state action, q_eval t.critic2 state action)

(* Target-policy smoothing noise, clipped, drawn in row-major order (per
   transition, then per action dimension). The per-sample oracle in
   test/oracle.ml draws it in the same order, so the two share one PRNG
   stream and, to rounding, one parameter trajectory. *)
let smoothing_noise t =
  Canopy_util.Mathx.clamp ~lo:(-.noise_clip) ~hi:noise_clip
    (Prng.gaussian_scaled t.rng ~mu:0. ~sigma:policy_noise)

(* A transition bootstraps through its next state unless it landed in a
   true absorbing state. Time-limit truncation ([truncated = true]) is not
   absorbing: the MDP would have continued, so the TD target keeps the
   [gamma * min Q'] term. *)
let bootstraps tr = not tr.Replay_buffer.terminal

(* ------------------------------------------------------------------ *)
(* The update: one GEMM-backed pass per network per direction.         *)
(* ------------------------------------------------------------------ *)

(* A minibatch into the workspace's [n × dim] matrix [dst], one
   transition per row. *)
let rows_into dst batch field =
  let dim = Mat.cols dst and d = Mat.raw dst in
  for i = 0 to Array.length batch - 1 do
    let v = field batch.(i) in
    if Array.length v <> dim then invalid_arg "Td3.update: transition dims";
    Array.blit v 0 d (i * dim) dim
  done

(* Pairwise tree reduction of the shard gradients into the first
   shard's: stride doubling merges (0,1) (2,3) … then (0,2) (4,6) …, so
   the summation tree is a fixed function of the shard count alone. *)
let reduce_shards grads =
  let nshards = Array.length grads in
  let stride = ref 1 in
  while !stride < nshards do
    let i = ref 0 in
    while !i + !stride < nshards do
      let dst = grads.(!i) and src = grads.(!i + !stride) in
      for p = 0 to Array.length dst - 1 do
        Elementwise.add_into ~dst:dst.(p) src.(p)
      done;
      i := !i + (2 * !stride)
    done;
    stride := 2 * !stride
  done

(* One critic fit: a full-batch forward and squared-error backward whose
   weight-gradient sums land per shard in the shadows (overwriting them,
   so no shadow is zeroed first), tree-reduce, then clip/step through
   the reduced gradients (the shadow's [params] share the critic's value
   arrays, so the optimizer updates the real network; its moments are
   keyed by position, and the shadow's arrays have the critic's shapes).
   The GEMMs fan out over the pool through [Mat.plan_chunks], as every
   other pass does. *)
let fit_critic critic shards opt ws inputs targets =
  let n = Mat.rows inputs in
  let inv_n = 1. /. float_of_int n in
  let preds, tape = Mlp.forward_train ~ws critic inputs in
  (* The tape holds the output layer's input, not [preds]: the loss
     gradient overwrites the predictions in place. *)
  let pd = Mat.raw preds in
  for i = 0 to n - 1 do
    pd.(i) <- 2. *. (pd.(i) -. targets.(i)) *. inv_n
  done;
  ignore (Mlp.backward ~input_grad:false ~shards:shards.plan critic tape preds);
  reduce_shards shards.grads;
  Optimizer.clip_gradients ~norm:10. shards.params;
  Optimizer.step opt shards.params;
  Mlp.bump_generation critic

let critic_update t (batch : Replay_buffer.transition array) =
  let cfg = t.cfg and ws = t.ws in
  let n = Array.length batch in
  let sd = cfg.state_dim and ad = cfg.action_dim in
  let width = sd + ad in
  rows_into ws.next_states batch (fun tr -> tr.Replay_buffer.next_state);
  (* Bellman targets with target-policy smoothing and clipped double-Q:
     the target critics read each next state followed by its smoothed
     target action. *)
  Mlp.forward_batch ~dst:ws.next_actions t.actor_target ws.next_states;
  let a' = Mat.raw ws.next_actions in
  let ns = Mat.raw ws.next_states and ni = Mat.raw ws.next_inputs in
  for i = 0 to n - 1 do
    Array.blit ns (i * sd) ni (i * width) sd;
    for j = 0 to ad - 1 do
      ni.((i * width) + sd + j) <-
        clamp_action (a'.((i * ad) + j) +. smoothing_noise t)
    done
  done;
  Mlp.forward_batch ~dst:ws.next_q1 t.critic1_target ws.next_inputs;
  Mlp.forward_batch ~dst:ws.next_q2 t.critic2_target ws.next_inputs;
  let q1' = Mat.raw ws.next_q1 and q2' = Mat.raw ws.next_q2 in
  let targets = ws.targets in
  for i = 0 to n - 1 do
    let tr = batch.(i) in
    let bootstrap =
      if bootstraps tr then cfg.gamma *. Float.min q1'.(i) q2'.(i) else 0.
    in
    targets.(i) <- tr.reward +. bootstrap
  done;
  (* The critic input, state then action per row, written once. *)
  let d = Mat.raw ws.inputs in
  Array.iteri
    (fun i tr ->
      if Array.length tr.Replay_buffer.action <> ad then
        invalid_arg "Td3.update: transition dims";
      Array.blit tr.Replay_buffer.state 0 d (i * width) sd;
      Array.blit tr.action 0 d ((i * width) + sd) ad)
    batch;
  fit_critic t.critic1 t.critic1_shards t.opt_critic1 ws.critic1_ws ws.inputs
    targets;
  fit_critic t.critic2 t.critic2_shards t.opt_critic2 ws.critic2_ws ws.inputs
    targets

let actor_update t (batch : Replay_buffer.transition array) =
  let cfg = t.cfg and ws = t.ws in
  let n = Array.length batch in
  let sd = cfg.state_dim and ad = cfg.action_dim in
  let width = sd + ad in
  rows_into ws.states batch (fun tr -> tr.Replay_buffer.state);
  Mlp.zero_grad t.actor;
  let actions, actor_tape =
    Mlp.forward_train ~ws:ws.actor_ws t.actor ws.states
  in
  (* Deterministic policy gradient: maximize Q1(s, pi(s)), i.e. descend
     -Q1. The critic is only a conduit for gradients here: its backward
     computes input gradients alone and leaves its accumulators, which
     the sharded fits never read, untouched. Its forward and input-gradient
     passes are row-local, and every GEMM cell is one ascending-k chain
     (DESIGN §7, §10), so no [daction] row depends on the batch it runs
     in. The actor's own passes are full-batch too, because batch norm
     couples its samples. The conduit's input, state then action per
     row, reuses the fits' input matrix. *)
  let ci = Mat.raw ws.inputs and st = Mat.raw ws.states in
  let ac = Mat.raw actions in
  for i = 0 to n - 1 do
    Array.blit st (i * sd) ci (i * width) sd;
    Array.blit ac (i * ad) ci ((i * width) + sd) ad
  done;
  let _, critic_tape =
    Mlp.forward_train ~ws:ws.critic1_ws t.critic1 ws.inputs
  in
  let inv_n = 1. /. float_of_int n in
  Mat.fill ws.dout (-.inv_n);
  let dinputs = Mlp.backward ~param_grads:false t.critic1 critic_tape ws.dout in
  let di = Mat.raw dinputs and da = Mat.raw ws.daction in
  for i = 0 to n - 1 do
    Array.blit di ((i * width) + sd) da (i * ad) ad
  done;
  ignore (Mlp.backward ~input_grad:false t.actor actor_tape ws.daction);
  Optimizer.clip_gradients ~norm:10. t.actor_params;
  Optimizer.step t.opt_actor t.actor_params;
  Mlp.bump_generation t.actor

let soft_updates t =
  let tau = t.cfg.tau in
  Mlp.soft_update ~tau ~src:t.actor ~dst:t.actor_target;
  Mlp.soft_update ~tau ~src:t.critic1 ~dst:t.critic1_target;
  Mlp.soft_update ~tau ~src:t.critic2 ~dst:t.critic2_target

let update t =
  if Replay_buffer.length t.buffer >= max t.cfg.warmup t.cfg.batch_size
  then begin
    t.update_calls <- t.update_calls + 1;
    let batch =
      Replay_buffer.sample t.buffer t.rng ~batch_size:t.cfg.batch_size
    in
    critic_update t batch;
    if t.update_calls mod policy_delay = 0 then begin
      actor_update t batch;
      soft_updates t
    end
  end

(* ------------------------------------------------------------------ *)
(* Snapshot / restore: the complete mutable training state, captured    *)
(* by value so a later restore rewinds the agent bit-for-bit.           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  nets : (string * Mlp.t) list;
  moments : (string * Optimizer.snapshot) list;
  transitions : Replay_buffer.transition array;
  cursor : int;
  capacity : int;
  rng_state : int64;
  update_count : int;
}

let net_names =
  [ "actor"; "actor_target"; "critic1"; "critic2"; "critic1_target";
    "critic2_target" ]

let nets_of t =
  [
    ("actor", t.actor);
    ("actor_target", t.actor_target);
    ("critic1", t.critic1);
    ("critic2", t.critic2);
    ("critic1_target", t.critic1_target);
    ("critic2_target", t.critic2_target);
  ]

let opts_of t =
  [
    ("opt_actor", t.opt_actor);
    ("opt_critic1", t.opt_critic1);
    ("opt_critic2", t.opt_critic2);
  ]

let snapshot t =
  let transitions = ref [] in
  Replay_buffer.iter (fun tr -> transitions := tr :: !transitions) t.buffer;
  {
    nets = List.map (fun (name, net) -> (name, Mlp.copy net)) (nets_of t);
    moments =
      List.map (fun (name, opt) -> (name, Optimizer.snapshot opt)) (opts_of t);
    (* Transitions are immutable once observed, so sharing them with the
       live buffer is safe. *)
    transitions = Array.of_list (List.rev !transitions);
    cursor = Replay_buffer.cursor t.buffer;
    capacity = Replay_buffer.capacity t.buffer;
    rng_state = Prng.state t.rng;
    update_count = t.update_calls;
  }

let restore t snap =
  if snap.capacity <> t.cfg.buffer_capacity then
    invalid_arg "Td3.restore: buffer capacity mismatch";
  List.iter
    (fun (name, live) ->
      match List.assoc_opt name snap.nets with
      | Some saved -> Mlp.assign ~src:saved ~dst:live
      | None -> invalid_arg ("Td3.restore: snapshot missing network " ^ name))
    (nets_of t);
  List.iter
    (fun (name, opt) ->
      match List.assoc_opt name snap.moments with
      | Some saved -> Optimizer.restore opt saved
      | None -> invalid_arg ("Td3.restore: snapshot missing optimizer " ^ name))
    (opts_of t);
  t.buffer <-
    Replay_buffer.of_seq ~capacity:snap.capacity ~cursor:snap.cursor
      (Array.to_seq snap.transitions);
  Prng.set_state t.rng snap.rng_state;
  t.update_calls <- snap.update_count

let reseed t ~salt = Prng.reseed t.rng ~salt

(* Cheap per-step divergence probe: a single pass summing every learned
   parameter of every network — any NaN or Inf poisons its sum. Batch-norm
   running statistics are excluded ([Mlp.params] covers learned parameters
   only); the full [Netcheck] pass at snapshot boundaries covers those. *)
let finite t =
  List.for_all
    (fun (_, net) ->
      List.for_all
        (fun (value, _) ->
          let s = ref 0. in
          Array.iter (fun x -> s := !s +. x) value;
          Float.is_finite !s)
        (Mlp.params net))
    (nets_of t)
