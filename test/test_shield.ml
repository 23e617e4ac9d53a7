(* Tests for the runtime shield: action projection into the performance
   property's admissible set, and end-to-end enforcement on the
   simulator. *)

open Canopy
module Observation = Canopy_orca.Observation
module Fleet_env = Canopy_orca.Fleet_env

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let history = 5
let state_dim = history * Observation.feature_count

let state_with_delay d =
  let s = Array.make state_dim 0.4 in
  List.iter (fun i -> s.(i) <- d) (Certify.delay_indices ~history);
  s

let shield () = Shield.create ~property:(Property.performance ()) ~history

let test_rejects_robustness () =
  Alcotest.check_raises "robustness rejected"
    (Invalid_argument "Shield.create: robustness is not runtime-enforceable")
    (fun () ->
      ignore (Shield.create ~property:(Property.robustness ()) ~history))

let test_rejects_bad_history () =
  Alcotest.check_raises "history" (Invalid_argument "Shield.create: history")
    (fun () ->
      ignore (Shield.create ~property:(Property.performance ()) ~history:0))

let test_unconstrained_between_thresholds () =
  let sh = shield () in
  let action, verdict =
    Shield.filter sh ~state:(state_with_delay 0.5) ~cwnd_tcp:100.
      ~prev_cwnd:100. ~action:0.9
  in
  check_float "passthrough" 0.9 action;
  check_bool "unconstrained" true (verdict = Shield.Unconstrained)

let test_clamps_growth_under_high_delay () =
  let sh = shield () in
  let action, verdict =
    Shield.filter sh ~state:(state_with_delay 0.9) ~cwnd_tcp:100.
      ~prev_cwnd:100. ~action:0.9
  in
  (* prev = cwnd_tcp: the boundary action is 0 (keep the window). *)
  check_float "clamped to boundary" 0. action;
  (match verdict with
  | Shield.Clamped { case; original; enforced } ->
      check_bool "large-delay case" true (case = Property.Large_delay);
      check_float "original preserved" 0.9 original;
      check_float "enforced" 0. enforced
  | Shield.Unconstrained -> Alcotest.fail "expected clamp");
  check_int "intervention counted" 1 (Shield.interventions sh)

let test_clamp_respects_eq1 () =
  (* After clamping, the Eq.-1 window must not exceed prev_cwnd. *)
  let sh = shield () in
  List.iter
    (fun (cwnd_tcp, prev_cwnd) ->
      let action, _ =
        Shield.filter sh ~state:(state_with_delay 0.8) ~cwnd_tcp ~prev_cwnd
          ~action:1.
      in
      let w = Fleet_env.cwnd_of_action ~action ~cwnd_tcp in
      check_bool
        (Printf.sprintf "window bounded (tcp=%g prev=%g)" cwnd_tcp prev_cwnd)
        true
        (w <= prev_cwnd +. 1e-6 || action = -1.))
    [ (100., 100.); (100., 50.); (50., 120.); (10., 3.); (400., 200.) ]

let test_allows_shrink_under_high_delay () =
  let sh = shield () in
  let action, verdict =
    Shield.filter sh ~state:(state_with_delay 0.9) ~cwnd_tcp:100.
      ~prev_cwnd:100. ~action:(-0.7)
  in
  check_float "shrinking action untouched" (-0.7) action;
  check_bool "no intervention" true (verdict = Shield.Unconstrained)

let test_clamps_shrink_under_low_delay () =
  let sh = shield () in
  let action, verdict =
    Shield.filter sh ~state:(state_with_delay 0.1) ~cwnd_tcp:100.
      ~prev_cwnd:100. ~action:(-0.9)
  in
  check_float "clamped up to boundary" 0. action;
  (match verdict with
  | Shield.Clamped { case; _ } ->
      check_bool "small-delay case" true (case = Property.Small_delay)
  | Shield.Unconstrained -> Alcotest.fail "expected clamp");
  let w = Fleet_env.cwnd_of_action ~action ~cwnd_tcp:100. in
  check_bool "window kept" true (w >= 100. -. 1e-6)

let test_allows_growth_under_low_delay () =
  let sh = shield () in
  let action, verdict =
    Shield.filter sh ~state:(state_with_delay 0.1) ~cwnd_tcp:100.
      ~prev_cwnd:100. ~action:0.8
  in
  check_float "growing action untouched" 0.8 action;
  check_bool "no intervention" true (verdict = Shield.Unconstrained)

let test_mixed_history_not_applicable () =
  (* One low frame among high ones: neither precondition holds. *)
  let sh = shield () in
  let s = state_with_delay 0.9 in
  s.(Observation.delay_index) <- 0.1;
  let action, verdict =
    Shield.filter sh ~state:s ~cwnd_tcp:100. ~prev_cwnd:100. ~action:1.
  in
  check_float "untouched" 1. action;
  check_bool "unconstrained" true (verdict = Shield.Unconstrained)

let test_counters () =
  let sh = shield () in
  ignore
    (Shield.filter sh ~state:(state_with_delay 0.5) ~cwnd_tcp:100.
       ~prev_cwnd:100. ~action:0.);
  ignore
    (Shield.filter sh ~state:(state_with_delay 0.9) ~cwnd_tcp:100.
       ~prev_cwnd:100. ~action:1.);
  check_int "steps" 2 (Shield.steps sh);
  check_int "interventions" 1 (Shield.interventions sh)

let test_end_to_end_enforcement () =
  (* Deploy a window-greedy policy (a ≡ 1) behind a shield on a congested
     link and check the recorded trajectory never grows the window after
     five consecutive high-delay observations. *)
  let actor =
    (* dense 0 weights, bias atanh(0.99): action ~ 0.99 always *)
    let open Canopy_nn in
    let bias = 0.5 *. log ((1. +. 0.99) /. (1. -. 0.99)) in
    Mlp.create ~in_dim:state_dim
      [
        Layer.Dense
          {
            w = Canopy_tensor.Mat.create ~rows:1 ~cols:state_dim;
            b = [| bias |];
            dw = Canopy_tensor.Mat.create ~rows:1 ~cols:state_dim;
            db = [| 0. |];
          };
        Layer.Tanh;
      ]
  in
  let trace =
    Canopy_trace.Trace.constant ~name:"tight" ~duration_ms:8_000 ~mbps:12.
  in
  (* a deep buffer lets queueing delay exceed 3x the propagation RTT, so
     the normalized delay can actually cross p = 0.75 *)
  let link = Eval.link ~min_rtt_ms:40 ~bdp:6. trace in
  let sh = shield () in
  let _, steps =
    Eval.eval_policy ~name:"greedy" ~shield:sh ~collect_steps:true
      ~policy:(`Mlp actor) ~history link
  in
  check_bool "shield intervened" true (Shield.interventions sh > 0);
  (* Consecutive high-delay records before the current step. *)
  let high = ref 0 in
  let prev = ref 10. in
  List.iter
    (fun (s : Eval.step_record) ->
      if !high >= history then
        check_bool "no growth under sustained high delay" true
          (s.cwnd_enforced <= !prev +. 1e-6);
      high := if s.delay_norm >= 0.75 then !high + 1 else 0;
      prev := s.cwnd_enforced)
    steps

let test_shield_keeps_policy_when_compliant () =
  (* A policy that already satisfies the property sees zero
     interventions. *)
  let sh = shield () in
  for _ = 1 to 20 do
    let a, _ =
      Shield.filter sh ~state:(state_with_delay 0.9) ~cwnd_tcp:100.
        ~prev_cwnd:120. ~action:(-0.2)
    in
    check_float "kept" (-0.2) a
  done;
  check_int "no interventions" 0 (Shield.interventions sh)

let suite =
  [
    ("rejects robustness", `Quick, test_rejects_robustness);
    ("rejects bad history", `Quick, test_rejects_bad_history);
    ("unconstrained mid-range", `Quick, test_unconstrained_between_thresholds);
    ("clamps growth at high delay", `Quick, test_clamps_growth_under_high_delay);
    ("clamp respects Eq. 1", `Quick, test_clamp_respects_eq1);
    ("allows shrink at high delay", `Quick, test_allows_shrink_under_high_delay);
    ("clamps shrink at low delay", `Quick, test_clamps_shrink_under_low_delay);
    ("allows growth at low delay", `Quick, test_allows_growth_under_low_delay);
    ("mixed history not applicable", `Quick, test_mixed_history_not_applicable);
    ("intervention counters", `Quick, test_counters);
    ("end-to-end enforcement", `Quick, test_end_to_end_enforcement);
    ("no intervention when compliant", `Quick,
      test_shield_keeps_policy_when_compliant);
  ]
