(* Tests for the zonotope (affine-forms) extension domain and the
   adaptive-subdivision certifier — the Section-8 directions implemented
   on top of the paper's box-domain verifier. The key obligations:
   soundness (never exclude a reachable output) and precision (never
   looser than the box domain on affine structure). *)

open Canopy_absint
open Canopy_nn
module Prng = Canopy_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let box2 =
  Box.of_intervals [| Interval.make (-1.) 1.; Interval.make 0. 2. |]

(* ------------------------------------------------------------------ *)
(* Structure *)

let test_of_box_generators () =
  let z = Zonotope.of_box box2 in
  check_int "dim" 2 (Zonotope.dim z);
  check_int "one symbol per wide dim" 2 (Zonotope.generators z);
  let z0 = Zonotope.of_point [| 1.; 2.; 3. |] in
  check_int "no symbols for a point" 0 (Zonotope.generators z0)

let test_concretize_roundtrip () =
  let z = Zonotope.of_box box2 in
  let back = Zonotope.concretize z in
  check_bool "same box" true (Box.equal ~eps:1e-12 box2 back)

let test_degenerate_dims_skipped () =
  let box =
    Box.of_intervals [| Interval.of_point 5.; Interval.make 0. 1. |]
  in
  let z = Zonotope.of_box box in
  check_int "only the wide dim gets a symbol" 1 (Zonotope.generators z);
  check_float "point dim preserved" 5. (Interval.lo (Zonotope.dimension z 0))

(* ------------------------------------------------------------------ *)
(* Exactness on affine maps — the zonotope's advantage over the box *)

let test_affine_exact_cancellation () =
  (* y = x - x must be exactly 0 in the zonotope domain (the box domain
     widens it to [-2w, 2w]). *)
  let m = Canopy_tensor.Mat.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  (* first map to (x0, x0): *)
  let dup = Canopy_tensor.Mat.of_arrays [| [| 1.; 0. |]; [| 1.; 0. |] |] in
  let diff = Canopy_tensor.Mat.of_arrays [| [| 1.; -1. |] |] in
  ignore m;
  let z = Zonotope.of_box box2 in
  let z = Zonotope.affine dup [| 0.; 0. |] z in
  let z = Zonotope.affine diff [| 0. |] z in
  let out = Zonotope.dimension z 0 in
  check_float "x - x = 0 (lo)" 0. (Interval.lo out);
  check_float "x - x = 0 (hi)" 0. (Interval.hi out);
  (* same computation in the box domain over-approximates: *)
  let b = Box.affine dup [| 0.; 0. |] box2 in
  let b = Box.affine diff [| 0. |] b in
  check_bool "box is strictly wider" true
    (Interval.width (Box.dimension b 0) > 1.)

let test_diag_affine () =
  let z = Zonotope.of_box box2 in
  let z = Zonotope.diag_affine ~scale:[| 2.; -1. |] ~shift:[| 1.; 0. |] z in
  let d0 = Zonotope.dimension z 0 and d1 = Zonotope.dimension z 1 in
  check_float "dim0 lo" (-1.) (Interval.lo d0);
  check_float "dim0 hi" 3. (Interval.hi d0);
  check_float "dim1 lo" (-2.) (Interval.lo d1);
  check_float "dim1 hi" 0. (Interval.hi d1)

(* ------------------------------------------------------------------ *)
(* Soundness of the nonlinear relaxations *)

let random_net rng = Mlp.actor ~rng ~in_dim:6 ~hidden:12 ~out_dim:1

let test_zonotope_soundness_sampling () =
  let rng = Prng.create 808 in
  for _ = 1 to 15 do
    let net = random_net rng in
    let ivs =
      Array.init 6 (fun _ ->
          let c = Prng.uniform rng (-1.) 1. in
          let r = Prng.float rng 0.4 in
          Interval.make (c -. r) (c +. r))
    in
    let box = Box.of_intervals ivs in
    let out = Zonotope.output_interval net box in
    for _ = 1 to 50 do
      let x = Box.sample rng box in
      let y = (Mlp.forward net x).(0) in
      if not (Interval.contains out y) then
        Alcotest.failf "zonotope unsound: %f outside %s" y
          (Format.asprintf "%a" Interval.pp out)
    done
  done

let test_zonotope_never_looser_than_box_on_linear_net () =
  (* Pure affine networks: the zonotope result must be a subset of the
     box result (strictly tighter whenever weights partially cancel). *)
  let rng = Prng.create 4 in
  for _ = 1 to 10 do
    let layers =
      [
        Layer.dense ~rng ~in_dim:4 ~out_dim:6;
        Layer.dense ~rng ~in_dim:6 ~out_dim:1;
      ]
    in
    let net = Mlp.create ~in_dim:4 layers in
    let box =
      Box.of_intervals (Array.init 4 (fun _ -> Interval.make (-0.5) 0.5))
    in
    let zono = Zonotope.output_interval net box in
    let ibp = Ibp.output_interval net box in
    check_bool "zonotope ⊆ box" true (Interval.subset zono ibp)
  done

let test_zonotope_tanh_bounded () =
  let rng = Prng.create 5 in
  let net = random_net rng in
  let box =
    Box.of_intervals (Array.init 6 (fun _ -> Interval.make (-5.) 5.))
  in
  let out = Zonotope.output_interval net box in
  check_bool "inside tanh range" true
    (Interval.lo out >= -1.0000001 && Interval.hi out <= 1.0000001)

let test_point_box_exact_through_net () =
  let rng = Prng.create 6 in
  let net = random_net rng in
  let x = Array.init 6 (fun i -> 0.05 *. float_of_int i) in
  let out = Zonotope.output_interval net (Box.of_point x) in
  let y = (Mlp.forward net x).(0) in
  check_bool "degenerate zonotope = concrete" true
    (Float.abs (Interval.lo out -. y) < 1e-9
    && Float.abs (Interval.hi out -. y) < 1e-9)

let test_leaky_relu_one_sided_exact () =
  let z =
    Zonotope.of_box (Box.of_intervals [| Interval.make 1. 2. |])
  in
  let out = Zonotope.dimension (Zonotope.leaky_relu ~slope:0.1 z) 0 in
  check_float "positive side identity lo" 1. (Interval.lo out);
  check_float "positive side identity hi" 2. (Interval.hi out);
  let z =
    Zonotope.of_box (Box.of_intervals [| Interval.make (-2.) (-1.) |])
  in
  let out = Zonotope.dimension (Zonotope.leaky_relu ~slope:0.1 z) 0 in
  check_float "negative side scaled lo" (-0.2) (Interval.lo out);
  check_float "negative side scaled hi" (-0.1) (Interval.hi out)

(* ------------------------------------------------------------------ *)
(* Certify with the zonotope domain *)

module Observation = Canopy_orca.Observation

let history = 5
let state_dim = history * Observation.feature_count
let mid_state = Array.make state_dim 0.4

let test_certify_zonotope_sound_vs_concrete () =
  let rng = Prng.create 909 in
  let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:12 ~out_dim:1 in
  let property = Canopy.Property.performance () in
  let cert =
    Canopy.Certify.certify ~domain:Canopy.Certify.Zonotope_domain ~actor
      ~property ~n_components:4 ~history ~state:mid_state ~cwnd_tcp:100.
      ~prev_cwnd:90. ()
  in
  let delay_idx = Canopy.Certify.delay_indices ~history in
  Array.iter
    (fun comp ->
      let case_iv =
        Canopy.Property.precondition_delay property comp.Canopy.Certify.case
      in
      let slice =
        List.nth (Interval.split case_iv 4) comp.Canopy.Certify.index
      in
      for _ = 1 to 20 do
        let d = Interval.sample rng slice in
        let s = Array.copy mid_state in
        List.iter (fun i -> s.(i) <- d) delay_idx;
        let a =
          Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1. (Mlp.forward actor s).(0)
        in
        check_bool "action inside zonotope bound" true
          (Interval.contains comp.Canopy.Certify.action a)
      done)
    cert.Canopy.Certify.components

let test_certify_zonotope_at_least_as_tight () =
  (* Certification is monotone under output tightening (a subset of a
     certified interval stays inside Y), and the zonotope runs as a
     reduced product with the box — so every box-certified component must
     also be zonotope-certified. (The scalar distance D of Eq. 7 is NOT
     monotone under tightening, so FCC is the right comparison.) *)
  let rng = Prng.create 1001 in
  for _ = 1 to 10 do
    let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
    let run domain =
      Canopy.Certify.certify ~domain ~actor
        ~property:(Canopy.Property.performance ()) ~n_components:5 ~history
        ~state:mid_state ~cwnd_tcp:100. ~prev_cwnd:90. ()
    in
    let box = run Canopy.Certify.Box_domain in
    let zono = run Canopy.Certify.Zonotope_domain in
    Array.iteri
      (fun i comp ->
        if comp.Canopy.Certify.certified then
          check_bool "box-certified implies zonotope-certified" true
            zono.Canopy.Certify.components.(i).Canopy.Certify.certified)
      box.Canopy.Certify.components;
    check_bool "fcc not worse" true
      (zono.Canopy.Certify.fcc >= box.Canopy.Certify.fcc -. 1e-9)
  done

(* ------------------------------------------------------------------ *)
(* Adaptive subdivision *)

let test_adaptive_matches_plain_on_decided () =
  (* A constant controller decides every component immediately, so the
     adaptive certifier must not split anything. *)
  let bias = 0.5 *. log ((1. +. 0.9) /. (1. -. 0.9)) in
  let actor =
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
  let cert =
    Canopy.Certify.certify_adaptive ~actor
      ~property:(Canopy.Property.performance ()) ~initial_components:2
      ~max_components:16 ~history ~state:mid_state ~cwnd_tcp:100.
      ~prev_cwnd:100. ()
  in
  check_int "no refinement needed" 4
    (Array.length cert.Canopy.Certify.components)

(* Total precondition width that is provably certified: monotone under
   refinement, because sub-slices of a certified slice stay certified. *)
let certified_measure (cert : Canopy.Certify.t) case =
  Array.to_list cert.Canopy.Certify.components
  |> List.filter (fun c -> c.Canopy.Certify.case = case)
  |> List.filter (fun c -> c.Canopy.Certify.certified)
  |> List.map (fun c -> Interval.width c.Canopy.Certify.slice)
  |> List.fold_left ( +. ) 0.

let test_adaptive_improves_or_matches_fcc () =
  let rng = Prng.create 77 in
  for _ = 1 to 8 do
    let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
    let plain =
      Canopy.Certify.certify ~actor
        ~property:(Canopy.Property.performance ()) ~n_components:2 ~history
        ~state:mid_state ~cwnd_tcp:100. ~prev_cwnd:90. ()
    in
    let adaptive =
      Canopy.Certify.certify_adaptive ~actor
        ~property:(Canopy.Property.performance ()) ~initial_components:2
        ~max_components:16 ~history ~state:mid_state ~cwnd_tcp:100.
        ~prev_cwnd:90. ()
    in
    (* refinement can only grow the provably-certified measure *)
    List.iter
      (fun case ->
        check_bool "adaptive certified measure >= plain" true
          (certified_measure adaptive case
          >= certified_measure plain case -. 1e-9))
      [ Canopy.Property.Large_delay; Canopy.Property.Small_delay ]
  done

let test_adaptive_budget_respected () =
  let rng = Prng.create 88 in
  let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
  let cert =
    Canopy.Certify.certify_adaptive ~actor
      ~property:(Canopy.Property.performance ()) ~initial_components:2
      ~max_components:10 ~history ~state:mid_state ~cwnd_tcp:100.
      ~prev_cwnd:90. ()
  in
  (* each case starts with 2 slices and may add at most 10 splits, each
     split increasing the count by 1: <= 12 per case, 24 total *)
  check_bool "budget respected" true
    (Array.length cert.Canopy.Certify.components <= 24)

let test_adaptive_validation () =
  let actor =
    Mlp.actor ~rng:(Prng.create 1) ~in_dim:state_dim ~hidden:4 ~out_dim:1
  in
  Alcotest.check_raises "max < initial"
    (Invalid_argument "Certify.certify_adaptive: max_components") (fun () ->
      ignore
        (Canopy.Certify.certify_adaptive ~actor
           ~property:(Canopy.Property.performance ()) ~initial_components:8
           ~max_components:4 ~history ~state:mid_state ~cwnd_tcp:100.
           ~prev_cwnd:90. ()))

let suite =
  [
    ("of_box generators", `Quick, test_of_box_generators);
    ("concretize roundtrip", `Quick, test_concretize_roundtrip);
    ("degenerate dims skipped", `Quick, test_degenerate_dims_skipped);
    ("affine cancellation exact", `Quick, test_affine_exact_cancellation);
    ("diag affine", `Quick, test_diag_affine);
    ("soundness by sampling", `Quick, test_zonotope_soundness_sampling);
    ("tighter than box on affine nets", `Quick,
      test_zonotope_never_looser_than_box_on_linear_net);
    ("tanh range preserved", `Quick, test_zonotope_tanh_bounded);
    ("point box exact", `Quick, test_point_box_exact_through_net);
    ("leaky relu one-sided exact", `Quick, test_leaky_relu_one_sided_exact);
    ("certify (zonotope) sound", `Quick, test_certify_zonotope_sound_vs_concrete);
    ("certify (zonotope) at least as tight", `Quick,
      test_certify_zonotope_at_least_as_tight);
    ("adaptive: no refinement when decided", `Quick,
      test_adaptive_matches_plain_on_decided);
    ("adaptive improves r_verifier", `Quick, test_adaptive_improves_or_matches_fcc);
    ("adaptive budget respected", `Quick, test_adaptive_budget_respected);
    ("adaptive validation", `Quick, test_adaptive_validation);
  ]
