(* Tests for canopy_rl: the replay buffer and the TD3 learner. The TD3
   learning test uses a one-step bandit-style environment with a known
   optimal action, which a correct implementation must find quickly. *)

open Canopy_rl
module Prng = Canopy_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tr ?(r = 0.) ?(terminal = false) ?(truncated = false) s a =
  {
    Replay_buffer.state = s;
    action = a;
    reward = r;
    next_state = s;
    terminal;
    truncated;
  }

(* ------------------------------------------------------------------ *)
(* Replay buffer *)

let test_buffer_add_length () =
  let b = Replay_buffer.create ~capacity:4 in
  check_int "empty" 0 (Replay_buffer.length b);
  Replay_buffer.add b (tr [| 0. |] [| 0. |]);
  check_int "one" 1 (Replay_buffer.length b);
  check_int "capacity" 4 (Replay_buffer.capacity b)

let test_buffer_wraps () =
  let b = Replay_buffer.create ~capacity:3 in
  for i = 1 to 10 do
    Replay_buffer.add b (tr ~r:(float_of_int i) [| 0. |] [| 0. |])
  done;
  check_int "bounded" 3 (Replay_buffer.length b);
  (* all samples must come from the last three pushes *)
  let rng = Prng.create 1 in
  let batch = Replay_buffer.sample b rng ~batch_size:50 in
  Array.iter
    (fun t -> check_bool "recent only" true (t.Replay_buffer.reward >= 8.))
    batch

let test_buffer_sample_size () =
  let b = Replay_buffer.create ~capacity:8 in
  Replay_buffer.add b (tr [| 1. |] [| 0.5 |]);
  let rng = Prng.create 2 in
  let batch = Replay_buffer.sample b rng ~batch_size:5 in
  check_int "requested size" 5 (Array.length batch)

let test_buffer_sample_empty_raises () =
  let b = Replay_buffer.create ~capacity:2 in
  let rng = Prng.create 3 in
  Alcotest.check_raises "empty"
    (Invalid_argument "Replay_buffer.sample: empty") (fun () ->
      ignore (Replay_buffer.sample b rng ~batch_size:1))

(* ------------------------------------------------------------------ *)
(* TD3 *)

let td3_config ~state_dim =
  {
    (Td3.default_config ~state_dim ~action_dim:1) with
    hidden = 16;
    batch_size = 32;
    warmup = 64;
    buffer_capacity = 4096;
  }

let test_td3_action_bounds () =
  let rng = Prng.create 7 in
  let agent = Td3.create ~rng (td3_config ~state_dim:3) in
  for _ = 1 to 50 do
    let s = Array.init 3 (fun _ -> Prng.uniform rng (-5.) 5.) in
    let a = Td3.select_action ~explore:true agent s in
    check_bool "bounded" true (Float.abs a.(0) <= 1.)
  done

let test_td3_deterministic_without_exploration () =
  let rng = Prng.create 8 in
  let agent = Td3.create ~rng (td3_config ~state_dim:2) in
  let s = [| 0.5; -0.5 |] in
  let a1 = Td3.select_action agent s in
  let a2 = Td3.select_action agent s in
  Alcotest.(check (array (float 0.))) "same action" a1 a2

let test_td3_update_noop_before_warmup () =
  let rng = Prng.create 9 in
  let agent = Td3.create ~rng (td3_config ~state_dim:2) in
  Td3.observe agent (tr [| 0.; 0. |] [| 0. |]);
  Td3.update agent;
  check_int "no update before warmup" 0 (Td3.updates_done agent)

let test_td3_observe_rejects_bad_state () =
  let rng = Prng.create 10 in
  let agent = Td3.create ~rng (td3_config ~state_dim:2) in
  Alcotest.check_raises "bad dim" (Invalid_argument "Td3.observe: state dim")
    (fun () -> Td3.observe agent (tr [| 0. |] [| 0. |]))

let test_td3_learns_bandit () =
  (* One-step environment: reward = -(a - 0.6)^2, episode ends
     immediately. The greedy action must converge near 0.6. *)
  let rng = Prng.create 11 in
  let agent = Td3.create ~rng (td3_config ~state_dim:2) in
  let noise = Prng.create 12 in
  let s = [| 0.3; -0.3 |] in
  for _ = 1 to 1500 do
    let a = Td3.select_action ~explore:true agent s in
    let a0 =
      Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.
        (a.(0) +. Prng.gaussian_scaled noise ~mu:0. ~sigma:0.2)
    in
    let r = -.((a0 -. 0.6) ** 2.) in
    Td3.observe agent
      { Replay_buffer.state = s; action = [| a0 |]; reward = r;
        next_state = s; terminal = true; truncated = false };
    Td3.update agent
  done;
  let a = (Td3.select_action agent s).(0) in
  check_bool
    (Printf.sprintf "greedy action near 0.6 (got %.3f)" a)
    true
    (Float.abs (a -. 0.6) < 0.25)

let test_td3_state_dependent_bandit () =
  (* Optimal action flips sign with the state: tests that the actor
     actually conditions on its input. *)
  let rng = Prng.create 13 in
  let agent = Td3.create ~rng (td3_config ~state_dim:1) in
  let noise = Prng.create 14 in
  for i = 1 to 3000 do
    let s = if i mod 2 = 0 then [| 1. |] else [| -1. |] in
    let target = if s.(0) > 0. then 0.5 else -0.5 in
    let a = Td3.select_action ~explore:true agent s in
    let a0 =
      Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.
        (a.(0) +. Prng.gaussian_scaled noise ~mu:0. ~sigma:0.2)
    in
    let r = -.((a0 -. target) ** 2.) in
    Td3.observe agent
      { Replay_buffer.state = s; action = [| a0 |]; reward = r;
        next_state = s; terminal = true; truncated = false };
    Td3.update agent
  done;
  let a_pos = (Td3.select_action agent [| 1. |]).(0) in
  let a_neg = (Td3.select_action agent [| -1. |]).(0) in
  check_bool
    (Printf.sprintf "sign split (pos %.3f / neg %.3f)" a_pos a_neg)
    true
    (a_pos > a_neg +. 0.3)

let test_td3_updates_counted () =
  let rng = Prng.create 15 in
  let agent = Td3.create ~rng (td3_config ~state_dim:1) in
  for _ = 1 to 100 do
    Td3.observe agent (tr ~r:0.1 ~terminal:true [| 0.5 |] [| 0. |])
  done;
  for _ = 1 to 10 do
    Td3.update agent
  done;
  check_int "updates counted" 10 (Td3.updates_done agent);
  check_int "buffer size" 100 (Td3.buffer_size agent)

let rand_vec rng n =
  let v = Array.make n 0. in
  for i = 0 to n - 1 do
    v.(i) <- Prng.uniform rng (-1.) 1.
  done;
  v

let test_td3_kernels_agree () =
  (* Batched and per-sample kernels draw PRNG noise in the same order, so
     two agents with identical seeds and replay contents follow the same
     parameter trajectory to rounding under either kernel. Not bit for
     bit: the batched target pass seeds each GEMM cell with the bias,
     and the batched critic fit reduces per-shard gradient sums through
     a tree, so a few percent of the parameters differ in their last
     bits after a handful of updates. *)
  let make () =
    let rng = Prng.create 42 in
    let agent = Td3.create ~rng (td3_config ~state_dim:3) in
    let data = Prng.create 43 in
    for i = 1 to 128 do
      Td3.observe agent
        {
          Replay_buffer.state = rand_vec data 3;
          action = rand_vec data 1;
          reward = Prng.uniform data (-1.) 1.;
          next_state = rand_vec data 3;
          terminal = i mod 7 = 0;
          truncated = i mod 5 = 0;
        }
    done;
    agent
  in
  let batched = make () and reference = make () in
  for _ = 1 to 12 do
    Td3.update ~kernel:Td3.Batched batched;
    Td3.update ~kernel:Td3.Per_sample reference
  done;
  check_int "both updated" (Td3.updates_done reference)
    (Td3.updates_done batched);
  List.iteri
    (fun pi ((v_b, _), (v_r, _)) ->
      Alcotest.(check (array (float 1e-9)))
        (Printf.sprintf "actor param %d" pi)
        v_r v_b)
    (List.combine
       (Canopy_nn.Mlp.params (Td3.actor batched))
       (Canopy_nn.Mlp.params (Td3.actor reference)));
  let s = [| 0.2; -0.4; 0.6 |] in
  Alcotest.(check (array (float 1e-9)))
    "greedy action"
    (Td3.select_action reference s)
    (Td3.select_action batched s)

let test_td3_truncation_bootstraps () =
  (* Time-limit bias: a transition with reward 1 looping on one state has
     discounted return 1/(1-gamma) if the episode merely hit a time limit
     (bootstrap continues), but exactly 1 if it truly terminated. The
     critics must learn very different Q-values in the two cases. *)
  let q_after ~terminal ~truncated =
    let rng = Prng.create 21 in
    let agent =
      Td3.create ~rng
        {
          (td3_config ~state_dim:1) with
          gamma = 0.8;
          tau = 0.1;
          actor_lr = 1e-3;
          critic_lr = 1e-2;
        }
    in
    let s = [| 0.5 |] and a = [| 0.2 |] in
    for _ = 1 to 128 do
      Td3.observe agent
        {
          Replay_buffer.state = s;
          action = a;
          reward = 1.;
          next_state = s;
          terminal;
          truncated;
        }
    done;
    for _ = 1 to 600 do
      Td3.update agent
    done;
    let q1, q2 = Td3.q_values agent ~state:s ~action:a in
    Float.min q1 q2
  in
  let q_term = q_after ~terminal:true ~truncated:false in
  let q_trunc = q_after ~terminal:false ~truncated:true in
  (* terminal: Q -> 1; truncated: Q -> 1/(1-0.8) = 5 *)
  check_bool
    (Printf.sprintf "terminal Q near 1 (got %.3f)" q_term)
    true
    (q_term > 0.5 && q_term < 2.);
  check_bool
    (Printf.sprintf "truncated Q bootstraps past reward (got %.3f)" q_trunc)
    true
    (q_trunc > q_term +. 1.)

(* ------------------------------------------------------------------ *)
(* Snapshots: replay layout, full-agent capture, v2 container *)

let test_buffer_iter_storage_order () =
  let b = Replay_buffer.create ~capacity:3 in
  for i = 1 to 5 do
    Replay_buffer.add b (tr ~r:(float_of_int i) [| 0. |] [| 0. |])
  done;
  (* Slots after five pushes into capacity 3: [4; 5; 3], cursor 2. *)
  let rewards = ref [] in
  Replay_buffer.iter
    (fun t -> rewards := t.Replay_buffer.reward :: !rewards)
    b;
  Alcotest.(check (list (float 0.))) "storage order" [ 4.; 5.; 3. ]
    (List.rev !rewards);
  check_int "cursor" 2 (Replay_buffer.cursor b)

let test_buffer_of_seq_roundtrip () =
  let b = Replay_buffer.create ~capacity:4 in
  for i = 1 to 7 do
    Replay_buffer.add b (tr ~r:(float_of_int i) [| float_of_int i |] [| 0. |])
  done;
  let dump buf =
    let acc = ref [] in
    Replay_buffer.iter (fun t -> acc := t :: !acc) buf;
    List.rev !acc
  in
  let b' =
    Replay_buffer.of_seq ~capacity:4 ~cursor:(Replay_buffer.cursor b)
      (List.to_seq (dump b))
  in
  check_int "length" (Replay_buffer.length b) (Replay_buffer.length b');
  check_int "cursor" (Replay_buffer.cursor b) (Replay_buffer.cursor b');
  check_bool "slots identical" true (dump b = dump b');
  (* The rebuilt buffer must overwrite the same slot next. *)
  Replay_buffer.add b (tr ~r:100. [| 0. |] [| 0. |]);
  Replay_buffer.add b' (tr ~r:100. [| 0. |] [| 0. |]);
  check_bool "next overwrite matches" true (dump b = dump b')

let test_buffer_of_seq_validates () =
  Alcotest.check_raises "overflow"
    (Invalid_argument "Replay_buffer.of_seq: more transitions than capacity")
    (fun () ->
      ignore
        (Replay_buffer.of_seq ~capacity:1
           (List.to_seq [ tr [| 0. |] [| 0. |]; tr [| 0. |] [| 0. |] ])))

(* Deterministic driver for snapshot tests: synthetic states, reward
   from a fixed linear target, exploration noise drawn from the agent's
   own PRNG so the whole trajectory is a function of agent state. *)
let drive agent ~from ~until =
  for i = from to until - 1 do
    let s = [| sin (0.1 *. float_of_int i); cos (0.07 *. float_of_int i) |] in
    let a = Td3.select_action ~explore:true agent s in
    let r = -.Float.abs (a.(0) -. (0.5 *. s.(0))) in
    Td3.observe agent
      { Replay_buffer.state = s; action = a; reward = r;
        next_state = s; terminal = true; truncated = false };
    Td3.update agent
  done

let agent_bits agent =
  let snap = Td3.snapshot agent in
  List.concat_map
    (fun (_, net) ->
      List.concat_map
        (fun (v, _) -> Array.to_list (Array.map Int64.bits_of_float v))
        (Canopy_nn.Mlp.params net))
    snap.Td3.nets

let test_td3_snapshot_restore_bitexact () =
  let cfg =
    { (td3_config ~state_dim:2) with warmup = 32; batch_size = 16;
      buffer_capacity = 64 }
  in
  let agent = Td3.create ~rng:(Prng.create 21) cfg in
  drive agent ~from:0 ~until:60;
  let snap = Td3.snapshot agent in
  drive agent ~from:60 ~until:100;
  let ahead = agent_bits agent in
  (* Restore into a FRESH agent built from a different seed: every piece
     of state must come from the snapshot, none from the constructor. *)
  let agent' = Td3.create ~rng:(Prng.create 9999) cfg in
  Td3.restore agent' snap;
  check_int "updates_done restored" 0
    (abs (Td3.updates_done agent' - snap.Td3.update_count));
  drive agent' ~from:60 ~until:100;
  check_bool "continuation is bit-identical" true (agent_bits agent' = ahead)

let test_td3_finite_detects_nan () =
  let agent = Td3.create ~rng:(Prng.create 22) (td3_config ~state_dim:2) in
  check_bool "fresh agent finite" true (Td3.finite agent);
  (match Canopy_nn.Mlp.params (Td3.actor agent) with
  | (v, _) :: _ -> v.(0) <- Float.nan
  | [] -> Alcotest.fail "no params");
  check_bool "NaN detected" false (Td3.finite agent)

let test_agent_snapshot_container_roundtrip () =
  let cfg =
    { (td3_config ~state_dim:2) with warmup = 32; batch_size = 16;
      buffer_capacity = 64 }
  in
  let agent = Td3.create ~rng:(Prng.create 23) cfg in
  drive agent ~from:0 ~until:50;
  let extra = [ ("trainer", "step 50\n") ] in
  let encoded = Agent_snapshot.encode ~fingerprint:"cfg-abc123" ~extra agent in
  let fingerprint, sections = Agent_snapshot.decode encoded in
  Alcotest.(check string) "fingerprint" "cfg-abc123" fingerprint;
  Alcotest.(check (option string)) "extra section carried" (Some "step 50\n")
    (List.assoc_opt "trainer" sections);
  let agent' = Td3.create ~rng:(Prng.create 4242) cfg in
  Agent_snapshot.restore agent' sections;
  drive agent ~from:50 ~until:80;
  drive agent' ~from:50 ~until:80;
  check_bool "decoded agent continues bit-identically" true
    (agent_bits agent = agent_bits agent')

let test_agent_snapshot_rejects_corruption () =
  let agent =
    Td3.create ~rng:(Prng.create 24)
      { (td3_config ~state_dim:2) with buffer_capacity = 64 }
  in
  drive agent ~from:0 ~until:10;
  let encoded = Agent_snapshot.encode ~fingerprint:"fp" agent in
  (* Pristine container must decode. *)
  ignore (Agent_snapshot.decode encoded);
  let expect_failure what s =
    match Agent_snapshot.decode s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (what ^ ": corrupt container was accepted")
  in
  expect_failure "truncated"
    (String.sub encoded 0 (String.length encoded / 2));
  let mid = String.length encoded / 2 in
  let flipped = Bytes.of_string encoded in
  Bytes.set flipped mid
    (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
  expect_failure "bit flip" (Bytes.to_string flipped);
  expect_failure "bad magic" ("not a checkpoint\n" ^ encoded)

let suite =
  [
    ("buffer add/length", `Quick, test_buffer_add_length);
    ("buffer wraps", `Quick, test_buffer_wraps);
    ("buffer sample size", `Quick, test_buffer_sample_size);
    ("buffer sample empty", `Quick, test_buffer_sample_empty_raises);
    ("td3 action bounds", `Quick, test_td3_action_bounds);
    ("td3 deterministic policy", `Quick, test_td3_deterministic_without_exploration);
    ("td3 warmup gate", `Quick, test_td3_update_noop_before_warmup);
    ("td3 rejects bad state", `Quick, test_td3_observe_rejects_bad_state);
    ("td3 learns bandit", `Slow, test_td3_learns_bandit);
    ("td3 state-dependent bandit", `Slow, test_td3_state_dependent_bandit);
    ("td3 update counting", `Quick, test_td3_updates_counted);
    ("td3 batched = per-sample kernels", `Quick, test_td3_kernels_agree);
    ("td3 truncation bootstraps", `Slow, test_td3_truncation_bootstraps);
    ("buffer iter storage order", `Quick, test_buffer_iter_storage_order);
    ("buffer of_seq roundtrip", `Quick, test_buffer_of_seq_roundtrip);
    ("buffer of_seq validates", `Quick, test_buffer_of_seq_validates);
    ("td3 snapshot/restore bit-exact", `Quick,
      test_td3_snapshot_restore_bitexact);
    ("td3 finite detects NaN", `Quick, test_td3_finite_detects_nan);
    ("agent snapshot container roundtrip", `Quick,
      test_agent_snapshot_container_roundtrip);
    ("agent snapshot rejects corruption", `Quick,
      test_agent_snapshot_rejects_corruption);
  ]
