(* Tests for bounded-horizon temporal verification: abstract unrolling of
   the closed loop under an interval environment model. *)

open Canopy
open Canopy_nn
open Canopy_tensor
module Interval = Canopy_absint.Interval
module Observation = Canopy_orca.Observation
module Fleet_env = Canopy_orca.Fleet_env
module Prng = Canopy_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let history = 5
let state_dim = history * Observation.feature_count
let mid_state = Array.make state_dim 0.4

let linear_actor ?(bias = 0.) weight_of =
  Mlp.create ~in_dim:state_dim
    [
      Layer.Dense
        {
          w = Mat.init ~rows:1 ~cols:state_dim (fun _ j -> weight_of j);
          b = [| bias |];
          dw = Mat.create ~rows:1 ~cols:state_dim;
          db = [| 0. |];
        };
      Layer.Tanh;
    ]

let constant_actor a =
  linear_actor ~bias:(0.5 *. log ((1. +. a) /. (1. -. a))) (fun _ -> 0.)

let verify ?env_model ?domain ~actor ~case ~horizon () =
  Temporal.verify ?env_model ?domain ~actor
    ~property:(Property.performance ()) ~case ~horizon ~history
    ~state:mid_state ~cwnd_tcp:100. ()

let test_structure () =
  let t = verify ~actor:(constant_actor 0.) ~case:Property.Large_delay
      ~horizon:4 () in
  check_int "one bound per step" 4 (List.length t.Temporal.steps);
  List.iteri
    (fun i (b : Temporal.step_bound) ->
      check_int "steps numbered" (i + 1) b.Temporal.step;
      check_bool "distance in unit" true
        (b.Temporal.distance >= 0. && b.Temporal.distance <= 1.))
    t.Temporal.steps;
  check_bool "r_verifier in unit" true
    (t.Temporal.r_verifier >= 0. && t.Temporal.r_verifier <= 1.)

let test_shrinking_controller_certified () =
  (* a ≡ −0.999 quarters the window every step: the window never rises
     above its start, at any horizon. *)
  let t =
    verify ~actor:(constant_actor (-0.999)) ~case:Property.Large_delay
      ~horizon:6 ()
  in
  check_bool "certified over horizon" true t.Temporal.certified

let test_growing_controller_violates () =
  let t =
    verify ~actor:(constant_actor 0.999) ~case:Property.Large_delay
      ~horizon:3 ()
  in
  check_bool "not certified" false t.Temporal.certified;
  (* the very first step already violates: distance 0 *)
  (match t.Temporal.steps with
  | first :: _ ->
      check_bool "step 1 fully violating" true (first.Temporal.distance = 0.)
  | [] -> Alcotest.fail "no steps")

let test_growing_controller_small_delay_certified () =
  let t =
    verify ~actor:(constant_actor 0.999) ~case:Property.Small_delay
      ~horizon:4 ()
  in
  check_bool "growth certified for small-delay" true t.Temporal.certified

let test_delay_reactive_controller () =
  (* The "ideal" controller of the per-step tests: strongly negative
     under sustained high delays. Starting from a history that is already
     congested, every unrolled step keeps the window down. (From a mixed
     history the early steps rightly stay uncertified: the controller
     only reacts once the whole delay window is high.) *)
  let delay_idx = Certify.delay_indices ~history in
  let actor =
    linear_actor ~bias:50. (fun j -> if List.mem j delay_idx then -20. else 0.)
  in
  let congested = Array.copy mid_state in
  List.iter (fun i -> congested.(i) <- 0.85) delay_idx;
  let t =
    Temporal.verify ~actor ~property:(Property.performance ())
      ~case:Property.Large_delay ~horizon:3 ~history ~state:congested
      ~cwnd_tcp:100. ()
  in
  check_bool "reactive controller certified" true t.Temporal.certified;
  (* from the mixed mid_state, the first step is undecided or violating *)
  let mixed = verify ~actor ~case:Property.Large_delay ~horizon:3 () in
  check_bool "mixed history not fully certified" false
    mixed.Temporal.certified

let test_wider_env_model_widens_bounds () =
  let rng = Prng.create 14 in
  let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
  let narrow =
    verify
      ~env_model:{ Temporal.cwnd_tcp_drift = 0.01; feature_slack = 0.01 }
      ~actor ~case:Property.Large_delay ~horizon:3 ()
  in
  let wide =
    verify
      ~env_model:{ Temporal.cwnd_tcp_drift = 0.3; feature_slack = 0.2 }
      ~actor ~case:Property.Large_delay ~horizon:3 ()
  in
  List.iter2
    (fun (n : Temporal.step_bound) (w : Temporal.step_bound) ->
      check_bool "narrow model nested in wide" true
        (Interval.subset n.Temporal.cwnd w.Temporal.cwnd))
    narrow.Temporal.steps wide.Temporal.steps

let test_zonotope_not_worse () =
  let rng = Prng.create 15 in
  for _ = 1 to 5 do
    let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
    let box = verify ~actor ~case:Property.Large_delay ~horizon:3 () in
    let zono =
      verify ~domain:Certify.Zonotope_domain ~actor
        ~case:Property.Large_delay ~horizon:3 ()
    in
    List.iter2
      (fun (b : Temporal.step_bound) (z : Temporal.step_bound) ->
        if b.Temporal.certified then
          check_bool "box-certified step stays certified" true
            z.Temporal.certified)
      box.Temporal.steps zono.Temporal.steps
  done

let test_validation () =
  let actor = constant_actor 0. in
  Alcotest.check_raises "horizon" (Invalid_argument "Temporal.verify: horizon")
    (fun () ->
      ignore (verify ~actor ~case:Property.Large_delay ~horizon:0 ()));
  Alcotest.check_raises "noise case"
    (Invalid_argument "Temporal.verify: performance cases only") (fun () ->
      ignore (verify ~actor ~case:Property.Noise ~horizon:2 ()));
  Alcotest.check_raises "robustness property"
    (Invalid_argument "Temporal.verify: performance cases only") (fun () ->
      ignore
        (Temporal.verify ~actor ~property:(Property.robustness ())
           ~case:Property.Noise ~horizon:2 ~history ~state:mid_state
           ~cwnd_tcp:100. ()))

(* Model-relative soundness: replay the unrolling concretely with values
   sampled inside the environment model and check that every concrete
   action and window lies inside the verifier's per-step intervals. *)
let test_soundness_within_model () =
  let rng = Prng.create 4242 in
  let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:12 ~out_dim:1 in
  let env_model = { Temporal.cwnd_tcp_drift = 0.1; feature_slack = 0.05 } in
  let property = Property.performance () in
  let case = Property.Large_delay in
  let horizon = 4 in
  let t =
    Temporal.verify ~env_model ~actor ~property ~case ~horizon ~history
      ~state:mid_state ~cwnd_tcp:100. ()
  in
  let delay_region = Property.precondition_delay property case in
  let fc = Observation.feature_count in
  for _ = 1 to 30 do
    (* one concrete rollout inside the model *)
    let frames =
      ref
        (List.init history (fun frame ->
             Array.init fc (fun j -> mid_state.((frame * fc) + j))))
    in
    let anchor = Array.sub mid_state ((history - 1) * fc) fc in
    let cwnd_tcp = ref 100. in
    List.iteri
      (fun i (b : Temporal.step_bound) ->
        let step = i + 1 in
        let slack = env_model.feature_slack *. float_of_int step in
        let fresh =
          Array.init fc (fun j ->
              if j = Observation.delay_index then
                Interval.sample rng delay_region
              else
                Canopy_util.Mathx.clamp ~lo:0. ~hi:1.
                  (Prng.uniform rng (anchor.(j) -. slack) (anchor.(j) +. slack)))
        in
        frames := List.tl !frames @ [ fresh ];
        let state = Array.concat !frames in
        let a =
          Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.
            (Mlp.forward actor state).(0)
        in
        if not (Interval.contains b.Temporal.action a) then
          Alcotest.failf "step %d: action %f escapes %s" step a
            (Format.asprintf "%a" Interval.pp b.Temporal.action);
        let w = Fleet_env.cwnd_of_action ~action:a ~cwnd_tcp:!cwnd_tcp in
        if not (Interval.contains b.Temporal.cwnd w) then
          Alcotest.failf "step %d: window %f escapes %s" step w
            (Format.asprintf "%a" Interval.pp b.Temporal.cwnd);
        (* drift the backbone inside the model *)
        cwnd_tcp :=
          w
          *. Prng.uniform rng
               (1. -. env_model.cwnd_tcp_drift)
               (1. +. env_model.cwnd_tcp_drift))
      t.Temporal.steps
  done

let suite =
  [
    ("structure", `Quick, test_structure);
    ("shrinking controller certified", `Quick,
      test_shrinking_controller_certified);
    ("growing controller violates", `Quick, test_growing_controller_violates);
    ("growth certified for small delay", `Quick,
      test_growing_controller_small_delay_certified);
    ("delay-reactive controller", `Quick, test_delay_reactive_controller);
    ("wider env model widens bounds", `Quick,
      test_wider_env_model_widens_bounds);
    ("zonotope not worse", `Quick, test_zonotope_not_worse);
    ("validation", `Quick, test_validation);
    ("soundness within the model", `Quick, test_soundness_within_model);
  ]
