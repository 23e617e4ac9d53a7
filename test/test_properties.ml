(* Cross-module property-based tests: randomized roundtrips and
   domain-relationship invariants that individual module suites only
   check on fixed instances. *)

open Canopy_nn
open Canopy_absint
module Prng = Canopy_util.Prng

let check_bool = Alcotest.(check bool)

(* Random small MLPs with all supported layer kinds. *)
let random_net rng =
  let hidden = 4 + Prng.int rng 8 in
  let in_dim = 2 + Prng.int rng 6 in
  let mid =
    match Prng.int rng 3 with
    | 0 -> Layer.leaky_relu ~slope:0.3 ()
    | 1 -> Layer.leaky_relu ~slope:0.05 ()
    | _ -> Layer.tanh
  in
  Mlp.create ~in_dim
    [
      Layer.dense ~rng ~in_dim ~out_dim:hidden;
      Layer.batch_norm ~dim:hidden ();
      mid;
      Layer.dense ~rng ~in_dim:hidden ~out_dim:1;
      Layer.tanh;
    ]

let test_checkpoint_roundtrip_random_nets () =
  let rng = Prng.create 2026 in
  for trial = 1 to 25 do
    let net = random_net rng in
    (* move BN stats off their defaults *)
    let batch =
      Array.init 8 (fun _ ->
          Array.init (Mlp.in_dim net) (fun _ -> Prng.uniform rng (-2.) 2.))
    in
    ignore (Mlp.forward_train net (Canopy_tensor.Mat.of_arrays batch));
    let restored = Checkpoint.of_string (Checkpoint.to_string net) in
    for _ = 1 to 10 do
      let x =
        Array.init (Mlp.in_dim net) (fun _ -> Prng.uniform rng (-3.) 3.)
      in
      let a = (Mlp.forward net x).(0) and b = (Mlp.forward restored x).(0) in
      if not (Canopy_util.Mathx.approx_equal ~eps:1e-12 a b) then
        Alcotest.failf "trial %d: %.17g <> %.17g" trial a b
    done
  done

let test_mahimahi_roundtrip_random_rates () =
  let rng = Prng.create 7 in
  for _ = 1 to 25 do
    let mbps = Prng.uniform rng 2. 150. in
    let t =
      Canopy_trace.Trace.constant ~name:"r" ~duration_ms:3000 ~mbps
    in
    let back =
      Canopy_trace.Trace.of_mahimahi ~name:"b" ~mtu_bytes:1500
        (Canopy_trace.Trace.to_mahimahi ~mtu_bytes:1500 t)
    in
    let err =
      Float.abs (Canopy_trace.Trace.avg_mbps back -. mbps) /. mbps
    in
    check_bool
      (Printf.sprintf "rate %.1f preserved (err %.3f)" mbps err)
      true (err < 0.05)
  done

let test_zonotope_product_always_subset_of_ibp () =
  (* The reduced product is, by construction, never looser than IBP —
     across random nets with every activation kind. *)
  let rng = Prng.create 11 in
  for _ = 1 to 25 do
    let net = random_net rng in
    let box =
      Box.of_intervals
        (Array.init (Mlp.in_dim net) (fun _ ->
             let c = Prng.uniform rng (-1.) 1. in
             let r = Prng.float rng 0.6 in
             Interval.make (c -. r) (c +. r)))
    in
    let z = Zonotope.output_interval net box in
    let b = Ibp.output_interval net box in
    check_bool "zonotope ⊆ ibp" true (Interval.subset z b)
  done

let test_certify_deterministic () =
  let rng = Prng.create 17 in
  let history = 5 in
  let state_dim = history * Canopy_orca.Observation.feature_count in
  for _ = 1 to 10 do
    let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
    let state = Array.init state_dim (fun _ -> Prng.uniform rng 0. 1.) in
    let run () =
      (Canopy.Certify.certify ~actor
         ~property:(Canopy.Property.performance ()) ~n_components:5 ~history
         ~state ~cwnd_tcp:80. ~prev_cwnd:75. ())
        .Canopy.Certify.r_verifier
    in
    check_bool "same inputs, same certificate" true (run () = run ())
  done

let test_refute_never_contradicts_soundness () =
  (* Any witness returned by refute must itself be inside the abstract
     output bound of its component (the bound is sound). *)
  let rng = Prng.create 23 in
  let history = 5 in
  let state_dim = history * Canopy_orca.Observation.feature_count in
  for _ = 1 to 10 do
    let actor = Mlp.actor ~rng ~in_dim:state_dim ~hidden:8 ~out_dim:1 in
    let state = Array.init state_dim (fun _ -> Prng.uniform rng 0. 1.) in
    let property = Canopy.Property.performance () in
    let cert =
      Canopy.Certify.certify ~actor ~property ~n_components:4 ~history ~state
        ~cwnd_tcp:100. ~prev_cwnd:90. ()
    in
    Array.iter
      (fun comp ->
        match
          Canopy.Certify.refute ~rng:(Prng.create 7) ~actor ~history ~state
            ~cwnd_tcp:100. ~prev_cwnd:90. comp
        with
        | Canopy.Certify.Unknown -> ()
        | Canopy.Certify.Violation { output; _ } ->
            check_bool "witness inside the abstract bound" true
              (Interval.contains comp.Canopy.Certify.output output))
      cert.Canopy.Certify.components
  done

let suite =
  [
    ("checkpoint roundtrip (random nets)", `Quick,
      test_checkpoint_roundtrip_random_nets);
    ("mahimahi roundtrip (random rates)", `Quick,
      test_mahimahi_roundtrip_random_rates);
    ("zonotope product ⊆ IBP (random nets)", `Quick,
      test_zonotope_product_always_subset_of_ibp);
    ("certify deterministic", `Quick, test_certify_deterministic);
    ("refute witness inside abstract bound", `Quick,
      test_refute_never_contradicts_soundness);
  ]
