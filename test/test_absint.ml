(* Tests for canopy_absint: interval arithmetic, the box domain, and
   soundness of interval bound propagation through real networks — the
   property underpinning every certificate in the paper (γ(f♯(s♯)) ⊇
   {f(s) : s ∈ γ(s♯)}). *)

open Canopy_absint
open Canopy_nn
module Prng = Canopy_util.Prng
module Mat = Canopy_tensor.Mat

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let interval = Alcotest.testable Interval.pp (Interval.equal ~eps:1e-12)

(* ------------------------------------------------------------------ *)
(* Interval *)

let test_interval_make () =
  let i = Interval.make (-1.) 2. in
  check_float "lo" (-1.) (Interval.lo i);
  check_float "hi" 2. (Interval.hi i);
  check_float "width" 3. (Interval.width i);
  check_float "midpoint" 0.5 (Interval.midpoint i);
  check_float "radius" 1.5 (Interval.radius i)

let test_interval_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (Interval.make 1. 0.));
  Alcotest.check_raises "nan" (Invalid_argument "Interval.make: nan")
    (fun () -> ignore (Interval.make Float.nan 0.))

let test_interval_membership () =
  let i = Interval.make 0. 1. in
  check_bool "contains" true (Interval.contains i 0.5);
  check_bool "boundary" true (Interval.contains i 1.);
  check_bool "outside" false (Interval.contains i 1.5);
  check_bool "subset" true (Interval.subset (Interval.make 0.2 0.8) i);
  check_bool "not subset" false (Interval.subset (Interval.make 0.2 1.2) i)

let test_interval_intersect_hull () =
  let a = Interval.make 0. 2. and b = Interval.make 1. 3. in
  (match Interval.intersect a b with
  | Some i -> Alcotest.check interval "intersect" (Interval.make 1. 2.) i
  | None -> Alcotest.fail "expected overlap");
  check_bool "disjoint" true
    (Interval.intersect a (Interval.make 5. 6.) = None);
  Alcotest.check interval "hull" (Interval.make 0. 3.) (Interval.hull a b)

let test_interval_arith () =
  let a = Interval.make 1. 2. and b = Interval.make (-1.) 3. in
  Alcotest.check interval "add" (Interval.make 0. 5.) (Interval.add a b);
  Alcotest.check interval "sub" (Interval.make (-2.) 3.) (Interval.sub a b);
  Alcotest.check interval "neg" (Interval.make (-2.) (-1.)) (Interval.neg a);
  Alcotest.check interval "scale pos" (Interval.make 2. 4.)
    (Interval.scale 2. a);
  Alcotest.check interval "scale neg" (Interval.make (-4.) (-2.))
    (Interval.scale (-2.) a);
  Alcotest.check interval "add_scalar" (Interval.make 0. 1.)
    (Interval.add_scalar (-1.) a);
  Alcotest.check interval "div_scalar" (Interval.make 0.5 1.)
    (Interval.div_scalar a 2.)

let test_interval_mul () =
  let a = Interval.make (-2.) 3. and b = Interval.make (-1.) 4. in
  Alcotest.check interval "mul mixed" (Interval.make (-8.) 12.)
    (Interval.mul a b)

let test_interval_mul_infinity_corners () =
  (* 0. *. infinity = nan in IEEE; the corner products must follow the
     zero-annihilation convention or half-infinite operands poison both
     bounds with NaN (and Interval.make rejects the result). *)
  let inf = Float.infinity in
  let full = Interval.make (-.inf) inf in
  Alcotest.check interval "0-width times full line" (Interval.of_point 0.)
    (Interval.mul (Interval.of_point 0.) full);
  Alcotest.check interval "full line times 0-width" (Interval.of_point 0.)
    (Interval.mul full (Interval.of_point 0.));
  let m = Interval.mul (Interval.make 0. 5.) (Interval.make 0. inf) in
  check_bool "no NaN bounds" true
    (not (Float.is_nan (Interval.lo m) || Float.is_nan (Interval.hi m)));
  check_float "lo" 0. (Interval.lo m);
  check_bool "hi is +inf" true (Interval.hi m = inf);
  check_bool "contains finite products" true
    (Interval.contains m (5. *. 1e300));
  let n = Interval.mul (Interval.make (-.inf) 0.) (Interval.make 0. 3.) in
  check_bool "neg half-line lo" true (Interval.lo n = -.inf);
  check_float "neg half-line hi" 0. (Interval.hi n)

let test_interval_scale_zero_infinite () =
  let full = Interval.make Float.neg_infinity Float.infinity in
  Alcotest.check interval "scale 0" (Interval.of_point 0.)
    (Interval.scale 0. full);
  Alcotest.check interval "scale -0" (Interval.of_point 0.)
    (Interval.scale (-0.) full);
  (* approx_equal can't compare infinite bounds (inf - inf = nan), so
     check the endpoints directly *)
  let s = Interval.scale 2. (Interval.make 0. Float.infinity) in
  check_float "scale 2 half-line lo" 0. (Interval.lo s);
  check_bool "scale 2 half-line hi" true (Interval.hi s = Float.infinity)

let test_interval_monotone_maps () =
  let a = Interval.make (-1.) 1. in
  Alcotest.check interval "pow2" (Interval.make 0.5 2.) (Interval.pow2 a);
  Alcotest.check interval "leaky" (Interval.make (-0.01) 1.)
    (Interval.leaky_relu ~slope:0.01 a);
  let t = Interval.tanh a in
  check_bool "tanh sym" true
    (Canopy_util.Mathx.approx_equal (Interval.lo t) (-.Interval.hi t))

let test_overlap_fraction_cases () =
  (* Eq. 7's three regimes. *)
  let target = Interval.make 0. 10. in
  check_float "disjoint -> 0" 0.
    (Interval.overlap_fraction ~target (Interval.make 11. 12.));
  check_float "contained -> 1" 1.
    (Interval.overlap_fraction ~target (Interval.make 2. 3.));
  check_float "partial -> ratio" 0.5
    (Interval.overlap_fraction ~target (Interval.make (-5.) 5.));
  check_float "point inside -> 1" 1.
    (Interval.overlap_fraction ~target (Interval.of_point 5.));
  check_float "point outside -> 0" 0.
    (Interval.overlap_fraction ~target (Interval.of_point 11.))

let test_overlap_fraction_infinite_target () =
  (* The performance property uses half-line postconditions. *)
  let target = Interval.make Float.neg_infinity 0. in
  check_float "all negative -> 1" 1.
    (Interval.overlap_fraction ~target (Interval.make (-3.) (-1.)));
  check_float "straddling -> ratio" 0.25
    (Interval.overlap_fraction ~target (Interval.make (-1.) 3.));
  check_float "all positive -> 0" 0.
    (Interval.overlap_fraction ~target (Interval.make 1. 2.))

let test_split_partition () =
  let i = Interval.make 0. 1. in
  let parts = Interval.split i 4 in
  Alcotest.(check int) "count" 4 (List.length parts);
  check_float "first lo" 0. (Interval.lo (List.nth parts 0));
  check_float "last hi" 1. (Interval.hi (List.nth parts 3));
  (* contiguous: each piece starts where the previous ended *)
  List.iteri
    (fun idx p ->
      if idx > 0 then
        check_float
          (Printf.sprintf "contiguous %d" idx)
          (Interval.hi (List.nth parts (idx - 1)))
          (Interval.lo p))
    parts

let test_split_one () =
  Alcotest.check interval "split 1 = identity" (Interval.make 2. 5.)
    (List.hd (Interval.split (Interval.make 2. 5.) 1))

let test_interval_sample () =
  let rng = Prng.create 7 in
  let i = Interval.make (-2.) 5. in
  for _ = 1 to 500 do
    check_bool "sample member" true (Interval.contains i (Interval.sample rng i))
  done

(* ------------------------------------------------------------------ *)
(* Box *)

let test_box_roundtrip () =
  let ivs = [| Interval.make 0. 1.; Interval.make (-2.) 2. |] in
  let b = Box.of_intervals ivs in
  Alcotest.(check int) "dim" 2 (Box.dim b);
  Alcotest.check interval "dim0" ivs.(0) (Box.dimension b 0);
  Alcotest.check interval "dim1" ivs.(1) (Box.dimension b 1)

let test_box_of_point () =
  let b = Box.of_point [| 1.; 2. |] in
  Alcotest.check interval "degenerate" (Interval.of_point 2.) (Box.dimension b 1)

let test_box_with_dimension () =
  let b = Box.of_point [| 1.; 2.; 3. |] in
  let b = Box.with_dimension b 1 (Interval.make 0. 4.) in
  Alcotest.check interval "updated" (Interval.make 0. 4.) (Box.dimension b 1);
  Alcotest.check interval "others kept" (Interval.of_point 3.)
    (Box.dimension b 2)

let test_box_negative_dev_rejected () =
  Alcotest.check_raises "negative dev"
    (Invalid_argument "Box.make: deviation") (fun () ->
      ignore (Box.make ~center:[| 0. |] ~dev:[| -1. |]))

let test_box_affine_known () =
  (* x ∈ [0,2] × [1,1]; M = [[1, -1]]; b = [10]  →  [10-1+0, 10-1+2]=[9,11] *)
  let box = Box.of_intervals [| Interval.make 0. 2.; Interval.of_point 1. |] in
  let m = Canopy_tensor.Mat.of_arrays [| [| 1.; -1. |] |] in
  let out = Box.affine m [| 10. |] box in
  Alcotest.check interval "affine image" (Interval.make 9. 11.)
    (Box.dimension out 0)

let test_box_map_monotone () =
  let b = Box.of_intervals [| Interval.make (-2.) 1. |] in
  let out = Box.map_monotone (fun x -> Float.max 0. x) b in
  Alcotest.check interval "relu image" (Interval.make 0. 1.)
    (Box.dimension out 0)

(* ------------------------------------------------------------------ *)
(* IBP soundness *)

let random_net rng =
  Mlp.actor ~rng ~in_dim:6 ~hidden:12 ~out_dim:1

let test_ibp_point_box_is_exact () =
  let rng = Prng.create 99 in
  let net = random_net rng in
  let x = Array.init 6 (fun i -> 0.1 *. float_of_int (i - 3)) in
  let out = Ibp.output_interval net (Box.of_point x) in
  let concrete = (Mlp.forward net x).(0) in
  check_bool "degenerate box = concrete forward" true
    (Float.abs (Interval.lo out -. concrete) < 1e-9
    && Float.abs (Interval.hi out -. concrete) < 1e-9)

let test_ibp_soundness_sampling () =
  (* For random boxes, every concrete forward of a sampled point must lie
     inside the propagated interval. *)
  let rng = Prng.create 2024 in
  for trial = 1 to 20 do
    let net = random_net rng in
    let ivs =
      Array.init 6 (fun _ ->
          let c = Prng.uniform rng (-1.) 1. in
          let r = Prng.float rng 0.5 in
          Interval.make (c -. r) (c +. r))
    in
    let box = Box.of_intervals ivs in
    let out = Ibp.output_interval net box in
    for _ = 1 to 50 do
      let x = Box.sample rng box in
      let y = (Mlp.forward net x).(0) in
      if not (Interval.contains out y) then
        Alcotest.failf "trial %d: concrete %f escapes %s" trial y
          (Format.asprintf "%a" Interval.pp out)
    done
  done

let test_ibp_monotone_in_box_width () =
  (* Widening the input box can only widen the output interval. *)
  let rng = Prng.create 31337 in
  let net = random_net rng in
  let center = Array.make 6 0.2 in
  let narrow = Box.make ~center ~dev:(Array.make 6 0.05) in
  let wide = Box.make ~center ~dev:(Array.make 6 0.2) in
  let o_narrow = Ibp.output_interval net narrow in
  let o_wide = Ibp.output_interval net wide in
  check_bool "nested outputs" true (Interval.subset o_narrow o_wide)

let test_ibp_tanh_output_bounded () =
  let rng = Prng.create 5 in
  let net = random_net rng in
  let box =
    Box.of_intervals (Array.init 6 (fun _ -> Interval.make (-10.) 10.))
  in
  let out = Ibp.output_interval net box in
  check_bool "within tanh range" true
    (Interval.lo out >= -1. && Interval.hi out <= 1.)

let test_ibp_batchnorm_running_stats () =
  (* After training-mode batches move the BN statistics, certification
     must still bound the eval-mode forward pass. *)
  let rng = Prng.create 17 in
  let net = random_net rng in
  let batch =
    Array.init 16 (fun _ -> Array.init 6 (fun _ -> Prng.uniform rng (-1.) 1.))
  in
  ignore (Mlp.forward_train net (Canopy_tensor.Mat.of_arrays batch));
  let box =
    Box.of_intervals (Array.init 6 (fun _ -> Interval.make (-0.5) 0.5))
  in
  let out = Ibp.output_interval net box in
  for _ = 1 to 200 do
    let x = Box.sample rng box in
    check_bool "still sound" true (Interval.contains out (Mlp.forward net x).(0))
  done

let test_ibp_dimension_mismatch () =
  let rng = Prng.create 3 in
  let net = random_net rng in
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Ibp.propagate: input dim") (fun () ->
      ignore (Ibp.propagate net (Box.of_point [| 0. |])))

(* ------------------------------------------------------------------ *)
(* Anet: the verifier IR *)

let check_close label a b =
  if not (Canopy_util.Mathx.approx_equal ~eps:1e-9 a b) then
    Alcotest.failf "%s: %.17g <> %.17g" label a b

let random_boxes rng n dim =
  Array.init n (fun _ ->
      Box.of_intervals
        (Array.init dim (fun _ ->
             let c = Prng.uniform rng (-1.) 1. in
             let r = Prng.float rng 0.6 in
             Interval.make (c -. r) (c +. r))))

let test_anet_extraction_shape () =
  let rng = Prng.create 41 in
  let actor = Mlp.actor ~rng ~in_dim:6 ~hidden:12 ~out_dim:1 in
  let ir = Anet.of_mlp actor in
  check_bool "actor in_dim" true (Anet.in_dim ir = 6);
  check_bool "actor out_dim" true (Anet.out_dim ir = 1);
  (match Anet.stages ir with
  | [ s1; s2; s3 ] ->
      let is_leaky = function Anet.Leaky_relu _ -> true | _ -> false in
      check_bool "stage 1 leaky" true (is_leaky s1.Anet.act);
      check_bool "stage 2 leaky" true (is_leaky s2.Anet.act);
      check_bool "stage 3 tanh" true (s3.Anet.act = Anet.Tanh)
  | stages ->
      Alcotest.failf "actor fused to %d stages, wanted 3"
        (List.length stages));
  let critic = Mlp.critic ~rng ~state_dim:5 ~action_dim:1 ~hidden:8 in
  match List.rev (Anet.stages (Anet.of_mlp critic)) with
  | last :: _ -> check_bool "critic ends linear" true (last.Anet.act = Anet.Linear)
  | [] -> Alcotest.fail "critic IR has no stages"

let test_anet_forward_matches_mlp () =
  (* Extraction invariance: fusing dense∘batch-norm runs must not change
     the concrete function, even after training batches have moved the
     BN statistics. *)
  let rng = Prng.create 43 in
  for _ = 1 to 10 do
    let net = random_net rng in
    let batch =
      Array.init 8 (fun _ -> Array.init 6 (fun _ -> Prng.uniform rng (-1.) 1.))
    in
    ignore (Mlp.forward_train net (Canopy_tensor.Mat.of_arrays batch));
    let ir = Anet.of_mlp net in
    for _ = 1 to 20 do
      let x = Array.init 6 (fun _ -> Prng.uniform rng (-2.) 2.) in
      check_close "fused forward" (Mlp.forward net x).(0) (Anet.forward ir x).(0)
    done
  done

let test_anet_propagate_matches_ibp () =
  (* The IR has no consecutive dense layers in these shapes, so the
     fused bounds agree with layer-by-layer IBP to rounding. *)
  let rng = Prng.create 47 in
  for _ = 1 to 10 do
    let net = random_net rng in
    let ir = Anet.of_mlp net in
    Array.iter
      (fun box ->
        let a = Box.dimension (Anet.propagate ir box) 0 in
        let b = Ibp.output_interval net box in
        check_close "lo" (Interval.lo b) (Interval.lo a);
        check_close "hi" (Interval.hi b) (Interval.hi a))
      (random_boxes rng 5 6)
  done

let test_anet_batched_matches_single () =
  let rng = Prng.create 53 in
  let net = random_net rng in
  let ir = Anet.cached net in
  let boxes = random_boxes rng 7 6 in
  let batched = Anet.output_intervals ir boxes in
  Array.iteri
    (fun i box ->
      let single = Anet.output_interval ir box in
      check_close "batched lo" (Interval.lo single) (Interval.lo batched.(i));
      check_close "batched hi" (Interval.hi single) (Interval.hi batched.(i)))
    boxes

let test_anet_zonotope_ir_path () =
  let rng = Prng.create 59 in
  for _ = 1 to 5 do
    let net = random_net rng in
    let ir = Anet.cached net in
    let boxes = random_boxes rng 4 6 in
    let fused = Zonotope.output_intervals_anet ir boxes in
    Array.iteri
      (fun i box ->
        let single = Zonotope.output_interval net box in
        check_close "zono lo" (Interval.lo single) (Interval.lo fused.(i));
        check_close "zono hi" (Interval.hi single) (Interval.hi fused.(i)))
      boxes
  done

let test_anet_cache_tracks_generation () =
  let rng = Prng.create 61 in
  let net = random_net rng in
  let ir = Anet.cached net in
  check_bool "cache hit is physical" true (Anet.cached net == ir);
  let batch =
    Array.init 4 (fun _ -> Array.init 6 (fun _ -> Prng.uniform rng (-1.) 1.))
  in
  ignore (Mlp.forward_train net (Canopy_tensor.Mat.of_arrays batch));
  let ir' = Anet.cached net in
  check_bool "generation bump invalidates" true (not (ir' == ir));
  check_bool "snapshot records generation" true
    (Anet.source_generation ir' = Mlp.generation net);
  (* the old snapshot still reflects the pre-update parameters *)
  check_bool "old snapshot is stale" true
    (Anet.source_generation ir < Anet.source_generation ir')

let test_anet_point_box_is_exact () =
  let rng = Prng.create 67 in
  let net = random_net rng in
  let ir = Anet.of_mlp net in
  let x = Array.init 6 (fun i -> 0.15 *. float_of_int (i - 2)) in
  let out = Anet.output_interval ir (Box.of_point x) in
  let concrete = (Mlp.forward net x).(0) in
  check_bool "degenerate box pins the forward value" true
    (Float.abs (Interval.lo out -. concrete) < 1e-9
    && Float.abs (Interval.hi out -. concrete) < 1e-9)

let test_anet_dimension_mismatch () =
  let rng = Prng.create 71 in
  let ir = Anet.of_mlp (random_net rng) in
  Alcotest.check_raises "propagate dim"
    (Invalid_argument "Anet.propagate: input dim") (fun () ->
      ignore (Anet.propagate ir (Box.of_point [| 0. |])))

(* Dense reference of the batched transfer, restated over [Anet.stages]:
   both GEMMs over every input column, and the endpoint formula through a
   per-cell closure. *)
let dense_output_intervals ir ~centers ~radii =
  let c, r =
    List.fold_left
      (fun (c, r) (stage : Anet.stage) ->
        let rows = Mat.rows c and cols = Mat.rows stage.w in
        let c' = Mat.create ~rows ~cols and r' = Mat.create ~rows ~cols in
        Mat.mat_mul_nt_bias_into ~dst:c' c stage.w stage.b;
        Mat.mat_mul_nt_into ~dst:r' r stage.abs_w;
        let endpoints f =
          let cd = Mat.raw c' and rd = Mat.raw r' in
          Array.iteri
            (fun i ci ->
              let lo = f (ci -. rd.(i)) and hi = f (ci +. rd.(i)) in
              cd.(i) <- 0.5 *. (hi +. lo);
              rd.(i) <- 0.5 *. (hi -. lo))
            cd
        in
        (match stage.act with
        | Anet.Linear -> ()
        | Anet.Leaky_relu slope ->
            endpoints (fun x -> if x >= 0. then x else slope *. x)
        | Anet.Tanh -> endpoints Float.tanh);
        (c', r'))
      (centers, radii) (Anet.stages ir)
  in
  Array.init (Mat.rows c) (fun k ->
      let ck = Mat.get c k 0 and rk = Mat.get r k 0 in
      Interval.make (ck -. rk) (ck +. rk))

let same_interval_bits a b =
  Int64.bits_of_float (Interval.lo a) = Int64.bits_of_float (Interval.lo b)
  && Int64.bits_of_float (Interval.hi a) = Int64.bits_of_float (Interval.hi b)

(* The radius GEMM skips input columns whose radius is ±0 in every row;
   the result must keep every bit of the dense transfer. Workloads:
   certificate-shaped (a point state, ±0 entries included, with only the
   five delay dimensions symbolic), all-dead (every radius ±0) and
   none-dead. Nets: the actor after batch-norm updates, a critic (linear
   head) and a steeper leaky-ReLU stack, so every activation branch runs. *)
let test_anet_dead_columns_match_dense () =
  let rng = Prng.create 73 in
  let d = 35 and delay = [ 0; 7; 14; 21; 28 ] in
  let actor = Mlp.actor ~rng ~in_dim:d ~hidden:16 ~out_dim:1 in
  ignore
    (Mlp.forward_train actor
       (Mat.init ~rows:8 ~cols:d (fun _ _ -> Prng.uniform rng (-1.) 1.)));
  let relu_net =
    Mlp.create ~in_dim:d
      [
        Canopy_nn.Layer.dense ~rng ~in_dim:d ~out_dim:10;
        Canopy_nn.Layer.leaky_relu ~slope:0.25 ();
        Canopy_nn.Layer.dense ~rng ~in_dim:10 ~out_dim:1;
        Canopy_nn.Layer.leaky_relu ~slope:0.25 ();
      ]
  in
  let nets =
    [
      actor;
      Mlp.critic ~rng ~state_dim:(d - 1) ~action_dim:1 ~hidden:12;
      relu_net;
    ]
  in
  let signed_zero () = if Prng.bool rng then 0. else -0. in
  let state () =
    Array.init d (fun _ ->
        match Prng.int rng 4 with
        | 0 -> signed_zero ()
        | _ -> Prng.uniform rng (-1.) 1.)
  in
  let certificate_shaped k =
    let s = state () in
    let centers = Mat.init ~rows:k ~cols:d (fun _ j -> s.(j)) in
    let radii = Mat.init ~rows:k ~cols:d (fun _ _ -> signed_zero ()) in
    for row = 0 to k - 1 do
      List.iter
        (fun j ->
          Mat.set centers row j (Prng.float rng 1.);
          Mat.set radii row j (Prng.float rng 0.1))
        delay
    done;
    (centers, radii)
  in
  let all_dead k =
    ( Mat.init ~rows:k ~cols:d (fun _ _ -> Prng.uniform rng (-1.) 1.),
      Mat.init ~rows:k ~cols:d (fun _ _ -> signed_zero ()) )
  in
  let none_dead k =
    ( Mat.init ~rows:k ~cols:d (fun _ _ -> Prng.uniform rng (-1.) 1.),
      Mat.init ~rows:k ~cols:d (fun _ _ -> 1e-3 +. Prng.float rng 0.3) )
  in
  (* One live entry in a column otherwise dead keeps the column. *)
  let one_live k =
    let centers, radii = all_dead k in
    Mat.set radii (k - 1) 3 0.25;
    (centers, radii)
  in
  List.iter
    (fun net ->
      let ir = Anet.of_mlp net in
      List.iter
        (fun (name, workload) ->
          List.iter
            (fun k ->
              let centers, radii = workload k in
              let want = dense_output_intervals ir ~centers ~radii in
              let got = Anet.output_intervals_rows ir ~centers ~radii in
              Array.iteri
                (fun i w ->
                  if not (same_interval_bits w got.(i)) then
                    Alcotest.failf "%s K=%d row %d: dense %a, rows %a" name k
                      i Interval.pp w Interval.pp got.(i))
                want)
            [ 1; 5; 14; 100 ])
        [
          ("certificate-shaped", certificate_shaped);
          ("all-dead", all_dead);
          ("none-dead", none_dead);
          ("one-live", one_live);
        ])
    nets

let test_anet_rows_rejects_bad_input () =
  let rng = Prng.create 79 in
  let ir = Anet.of_mlp (random_net rng) in
  let rows k cols v = Mat.init ~rows:k ~cols (fun _ _ -> v) in
  let raises name msg centers radii =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Anet.output_intervals_rows ir ~centers ~radii))
  in
  let shape = "Anet.output_intervals_rows: shape"
  and deviation = "Anet.output_intervals_rows: deviation" in
  raises "columns" shape (rows 3 5 0.) (rows 3 5 0.);
  raises "radius columns" shape (rows 3 6 0.) (rows 3 5 0.);
  raises "rows" shape (rows 3 6 0.) (rows 4 6 0.);
  let with_radius v =
    let r = rows 3 6 0.1 in
    Mat.set r 2 4 v;
    r
  in
  raises "negative radius" deviation (rows 3 6 0.) (with_radius (-1e-300));
  raises "NaN radius" deviation (rows 3 6 0.) (with_radius Float.nan);
  (* -0. is a zero radius, as [Box.make] has it *)
  ignore (Anet.output_intervals_rows ir ~centers:(rows 3 6 0.) ~radii:(with_radius (-0.)))

(* ------------------------------------------------------------------ *)
(* Property-based *)

let gen_interval =
  QCheck.Gen.(
    let* a = float_range (-50.) 50. in
    let* w = float_range 0. 20. in
    return (Interval.make a (a +. w)))

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"interval add is sound on samples" ~count:100
      (make Gen.(triple gen_interval gen_interval (float_bound_inclusive 1.)))
      (fun (a, b, t) ->
        let x = Canopy_util.Mathx.lerp (Interval.lo a) (Interval.hi a) t in
        let y = Canopy_util.Mathx.lerp (Interval.lo b) (Interval.hi b) t in
        Interval.contains (Interval.add a b) (x +. y));
    Test.make ~name:"interval mul is sound on endpoints" ~count:200
      (make Gen.(pair gen_interval gen_interval))
      (fun (a, b) ->
        let m = Interval.mul a b in
        List.for_all
          (fun (x, y) -> Interval.contains m (x *. y))
          [
            (Interval.lo a, Interval.lo b);
            (Interval.lo a, Interval.hi b);
            (Interval.hi a, Interval.lo b);
            (Interval.hi a, Interval.hi b);
            (Interval.midpoint a, Interval.midpoint b);
          ]);
    Test.make ~name:"split pieces cover and partition" ~count:200
      (make Gen.(pair gen_interval (int_range 1 16)))
      (fun (i, n) ->
        let parts = Interval.split i n in
        List.length parts = n
        && Canopy_util.Mathx.approx_equal ~eps:1e-9
             (Interval.lo (List.hd parts))
             (Interval.lo i)
        && Canopy_util.Mathx.approx_equal ~eps:1e-9
             (Interval.hi (List.nth parts (n - 1)))
             (Interval.hi i)
        && List.for_all (fun p -> Interval.subset p i) parts);
    Test.make ~name:"overlap fraction in [0,1]" ~count:200
      (make Gen.(pair gen_interval gen_interval))
      (fun (target, out) ->
        let d = Interval.overlap_fraction ~target out in
        d >= 0. && d <= 1.);
    Test.make ~name:"hull contains both arguments" ~count:200
      (make Gen.(pair gen_interval gen_interval))
      (fun (a, b) ->
        let h = Interval.hull a b in
        Interval.subset a h && Interval.subset b h);
  ]

let suite =
  [
    ("interval make/accessors", `Quick, test_interval_make);
    ("interval invalid", `Quick, test_interval_invalid);
    ("interval membership", `Quick, test_interval_membership);
    ("interval intersect/hull", `Quick, test_interval_intersect_hull);
    ("interval arithmetic", `Quick, test_interval_arith);
    ("interval multiplication", `Quick, test_interval_mul);
    ("interval mul 0*inf corners", `Quick, test_interval_mul_infinity_corners);
    ("interval scale 0*inf corners", `Quick, test_interval_scale_zero_infinite);
    ("interval monotone maps", `Quick, test_interval_monotone_maps);
    ("overlap fraction (Eq. 7)", `Quick, test_overlap_fraction_cases);
    ("overlap fraction half-lines", `Quick, test_overlap_fraction_infinite_target);
    ("split partitions", `Quick, test_split_partition);
    ("split n=1", `Quick, test_split_one);
    ("interval sampling", `Quick, test_interval_sample);
    ("box interval roundtrip", `Quick, test_box_roundtrip);
    ("box of point", `Quick, test_box_of_point);
    ("box with_dimension", `Quick, test_box_with_dimension);
    ("box rejects negative dev", `Quick, test_box_negative_dev_rejected);
    ("box affine image", `Quick, test_box_affine_known);
    ("box monotone map", `Quick, test_box_map_monotone);
    ("ibp point box exact", `Quick, test_ibp_point_box_is_exact);
    ("ibp soundness (sampling)", `Quick, test_ibp_soundness_sampling);
    ("ibp monotone in width", `Quick, test_ibp_monotone_in_box_width);
    ("ibp tanh range", `Quick, test_ibp_tanh_output_bounded);
    ("ibp sound after BN updates", `Quick, test_ibp_batchnorm_running_stats);
    ("ibp dimension mismatch", `Quick, test_ibp_dimension_mismatch);
    ("anet extraction shape", `Quick, test_anet_extraction_shape);
    ("anet forward = mlp forward", `Quick, test_anet_forward_matches_mlp);
    ("anet propagate = ibp", `Quick, test_anet_propagate_matches_ibp);
    ("anet batched = single", `Quick, test_anet_batched_matches_single);
    ("anet zonotope IR path", `Quick, test_anet_zonotope_ir_path);
    ("anet cache tracks generation", `Quick, test_anet_cache_tracks_generation);
    ("anet point box exact", `Quick, test_anet_point_box_is_exact);
    ("anet dimension mismatch", `Quick, test_anet_dimension_mismatch);
    ("anet dead radius columns = dense", `Quick,
      test_anet_dead_columns_match_dense);
    ("anet rows reject bad input", `Quick, test_anet_rows_rejects_bad_input);
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck
