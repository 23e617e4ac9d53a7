(* Tests for canopy_nn: layer semantics, gradient correctness via finite
   differences, optimizers, checkpointing, target-network updates. *)

open Canopy_nn
open Canopy_tensor

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let rng () = Canopy_util.Prng.create 1234

(* ------------------------------------------------------------------ *)
(* Layer forward semantics *)

(* One sample through a layer's inference forward. *)
let forward1 layer x =
  let dst =
    Mat.create ~rows:1 ~cols:(Layer.out_dim ~in_dim:(Array.length x) layer)
  in
  Layer.forward_eval_into ~dst layer (Mat.of_rows [| x |]);
  Mat.row dst 0

let test_dense_forward () =
  let d =
    Layer.Dense
      {
        w = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |];
        b = [| 0.5; -0.5 |];
        dw = Mat.create ~rows:2 ~cols:2;
        db = Vec.create 2;
      }
  in
  let y = forward1 d [| 1.; 1. |] in
  Alcotest.(check (array (float 1e-9))) "dense" [| 3.5; 6.5 |] y

let test_leaky_relu_forward () =
  let l = Layer.leaky_relu ~slope:0.1 () in
  let y = forward1 l [| -2.; 0.; 3. |] in
  Alcotest.(check (array (float 1e-9))) "leaky" [| -0.2; 0.; 3. |] y

let test_tanh_forward () =
  let y = forward1 Layer.tanh [| 0.; 100. |] in
  check_float "tanh 0" 0. y.(0);
  check_bool "tanh sat" true (y.(1) > 0.999)

let test_batch_norm_identity_init () =
  (* Fresh BN with running stats (mean 0, var 1) is ~identity in eval. *)
  let bn = Layer.batch_norm ~eps:1e-12 ~dim:3 () in
  let x = [| 0.5; -1.; 2. |] in
  let y = forward1 bn x in
  Array.iteri
    (fun i v -> check_bool "near identity" true (Float.abs (v -. x.(i)) < 1e-5))
    y

let test_batch_norm_normalizes_batch () =
  let bn = Layer.batch_norm ~dim:1 () in
  let batch = Mat.of_arrays [| [| 10. |]; [| 20. |]; [| 30. |] |] in
  let out, _ = Layer.forward bn batch in
  let o i = Mat.get out i 0 in
  let mean = (o 0 +. o 1 +. o 2) /. 3. in
  check_bool "batch output centered" true (Float.abs mean < 1e-9);
  check_bool "ordered" true (o 0 < o 1 && o 1 < o 2)

let test_batch_norm_updates_running_stats () =
  match Layer.batch_norm ~momentum:0.5 ~dim:1 () with
  | Layer.Batch_norm bn as layer ->
      let batch = Mat.of_arrays [| [| 10. |]; [| 20. |] |] in
      ignore (Layer.forward layer batch);
      (* running mean moves halfway from 0 toward the batch mean 15 *)
      check_float "running mean" 7.5 bn.running_mean.(0)
  | _ -> assert false

let test_out_dim () =
  let d = Layer.dense ~rng:(rng ()) ~in_dim:4 ~out_dim:7 in
  Alcotest.(check int) "dense out" 7 (Layer.out_dim ~in_dim:4 d);
  Alcotest.(check int) "tanh out" 5 (Layer.out_dim ~in_dim:5 Layer.tanh)

(* ------------------------------------------------------------------ *)
(* Gradient checks: compare backprop against central finite differences
   of a scalar loss L = sum(output) over a small random network. *)

let fd_epsilon = 1e-5

let loss_of net batch =
  (* deterministic loss: run in Train mode via forward_train to exercise
     the same code path as backward, but batch-norm running stats update
     makes repeated forwards impure — so gradient-check networks avoid BN
     batch mode by using batch size 1 (falls back to running stats). *)
  let out, _ = Mlp.forward_train net batch in
  Array.fold_left ( +. ) 0. (Mat.raw out)

let gradient_check ?(eps = 2e-3) net rows =
  let batch = Mat.of_arrays rows in
  Mlp.zero_grad net;
  let out, tape = Mlp.forward_train net batch in
  let dout = Mat.init ~rows:(Mat.rows out) ~cols:(Mat.cols out) (fun _ _ -> 1.) in
  ignore (Mlp.backward net tape dout);
  let params = Mlp.params net in
  List.iteri
    (fun pi (value, grad) ->
      Array.iteri
        (fun i _ ->
          let saved = value.(i) in
          value.(i) <- saved +. fd_epsilon;
          let lp = loss_of net batch in
          value.(i) <- saved -. fd_epsilon;
          let lm = loss_of net batch in
          value.(i) <- saved;
          let numeric = (lp -. lm) /. (2. *. fd_epsilon) in
          let analytic = grad.(i) in
          let denom = Float.max 1. (Float.abs numeric) in
          if Float.abs (numeric -. analytic) /. denom > eps then
            Alcotest.failf "param %d[%d]: numeric %.6f vs analytic %.6f" pi i
              numeric analytic)
        value)
    params

let test_grad_dense_tanh () =
  let r = rng () in
  let net =
    Mlp.create ~in_dim:3
      [ Layer.dense ~rng:r ~in_dim:3 ~out_dim:4; Layer.tanh;
        Layer.dense ~rng:r ~in_dim:4 ~out_dim:2 ]
  in
  gradient_check net [| [| 0.3; -0.7; 1.1 |] |]

let test_grad_leaky_relu () =
  let r = rng () in
  let net =
    Mlp.create ~in_dim:2
      [
        Layer.dense ~rng:r ~in_dim:2 ~out_dim:5;
        Layer.leaky_relu ~slope:0.05 ();
        Layer.dense ~rng:r ~in_dim:5 ~out_dim:1;
      ]
  in
  gradient_check net [| [| 0.9; -0.4 |] |]

let test_grad_batchnorm_eval_path () =
  (* Batch of one: BN uses running statistics (an affine map); gradients
     through gamma/beta and the input must still be exact. *)
  let r = rng () in
  let net =
    Mlp.create ~in_dim:2
      [
        Layer.dense ~rng:r ~in_dim:2 ~out_dim:3;
        Layer.batch_norm ~dim:3 ();
        Layer.leaky_relu ();
        Layer.dense ~rng:r ~in_dim:3 ~out_dim:1;
      ]
  in
  gradient_check net [| [| 0.2; -0.8 |] |]

let test_grad_batchnorm_batch_stats () =
  (* Full BN backward through batch statistics: compare against finite
     differences of a frozen copy of the network (running-stat updates
     would otherwise change the loss between evaluations). We sidestep
     impurity by setting momentum to 0 so running stats never change. *)
  let r = rng () in
  let net =
    Mlp.create ~in_dim:2
      [
        Layer.dense ~rng:r ~in_dim:2 ~out_dim:3;
        Layer.batch_norm ~momentum:0. ~dim:3 ();
        Layer.tanh;
        Layer.dense ~rng:r ~in_dim:3 ~out_dim:1;
      ]
  in
  gradient_check net [| [| 0.2; -0.8 |]; [| 1.0; 0.4 |]; [| -0.5; 0.1 |] |]

let test_backward_input_gradient () =
  (* dL/dx for L = sum(W x + b) must equal column sums of W. *)
  let w = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let net =
    Mlp.create ~in_dim:2
      [
        Layer.Dense
          { w; b = Vec.create 2; dw = Mat.create ~rows:2 ~cols:2;
            db = Vec.create 2 };
      ]
  in
  let _, tape = Mlp.forward_train net (Mat.of_arrays [| [| 0.1; 0.2 |] |]) in
  let dx = Mlp.backward net tape (Mat.of_arrays [| [| 1.; 1. |] |]) in
  Alcotest.(check (array (float 1e-9))) "input grad" [| 4.; 6. |] (Mat.row dx 0)

(* ------------------------------------------------------------------ *)
(* Batched kernels vs the per-sample oracle ([Oracle]). The batched
   implementation accumulates in the same order as the oracle, so the
   two must agree to ~1e-9 (in practice bitwise) — otherwise the
   verifier's certificates would describe a different network than the
   one training deploys. *)

let batched_vs_rows_once net ~n ~in_dim ~out_dim ~seed =
  let rows =
    Array.init n (fun i ->
        Array.init in_dim (fun j ->
            Float.sin (float_of_int (((seed + i) * in_dim) + j))))
  in
  let dout_rows =
    Array.init n (fun i ->
        Array.init out_dim (fun j ->
            Float.cos (float_of_int (((seed + i) * out_dim) + j))))
  in
  let refnet = Mlp.copy net in
  let conduit = Mlp.copy net in
  (* batched pass *)
  Mlp.zero_grad net;
  let out_b, tape = Mlp.forward_train net (Mat.of_rows rows) in
  let din_b = Mlp.backward net tape (Mat.of_rows dout_rows) in
  (* input gradients only: the same bits, and the accumulators (set to a
     sentinel) untouched *)
  List.iter (fun (_, g) -> Array.fill g 0 (Array.length g) 7.) (Mlp.params conduit);
  let _, ctape = Mlp.forward_train conduit (Mat.of_rows rows) in
  let din_c = Mlp.backward ~param_grads:false conduit ctape (Mat.of_rows dout_rows) in
  Alcotest.(check (array int64))
    "input grad without param grads (bits)"
    (Array.map Int64.bits_of_float (Mat.raw din_b))
    (Array.map Int64.bits_of_float (Mat.raw din_c));
  List.iter
    (fun (_, g) ->
      Alcotest.(check bool) "param grads untouched" true
        (Array.for_all (fun x -> Float.equal x 7.) g))
    (Mlp.params conduit);
  (* per-sample oracle pass *)
  Mlp.zero_grad refnet;
  let out_r, rtape = Oracle.mlp_forward_rows refnet rows in
  let din_r = Oracle.mlp_backward_rows refnet rtape dout_rows in
  let check_rows what m vs =
    Array.iteri
      (fun i v ->
        Alcotest.(check (array (float 1e-9)))
          (Printf.sprintf "%s row %d" what i)
          v (Mat.row m i))
      vs
  in
  check_rows "forward" out_b out_r;
  check_rows "input grad" din_b din_r;
  List.iteri
    (fun pi ((v_b, g_b), (v_r, g_r)) ->
      Alcotest.(check (array (float 1e-9)))
        (Printf.sprintf "param %d value" pi)
        v_r v_b;
      Alcotest.(check (array (float 1e-9)))
        (Printf.sprintf "param %d grad" pi)
        g_r g_b)
    (List.combine (Mlp.params net) (Mlp.params refnet));
  (* running statistics must have moved identically (eval forwards agree) *)
  let x = Array.init in_dim (fun j -> 0.1 *. float_of_int (j + 1)) in
  Alcotest.(check (array (float 1e-9)))
    "eval forward after training pass" (Mlp.forward refnet x)
    (Mlp.forward net x)

let test_batched_matches_rows_actor () =
  (* dense + batch-norm + leaky-relu + tanh, i.e. every layer kind *)
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:4 ~hidden:8 ~out_dim:2 in
  batched_vs_rows_once net ~n:5 ~in_dim:4 ~out_dim:2 ~seed:17

let test_batched_matches_rows_critic () =
  let net = Mlp.critic ~rng:(rng ()) ~state_dim:5 ~action_dim:2 ~hidden:8 in
  batched_vs_rows_once net ~n:7 ~in_dim:7 ~out_dim:1 ~seed:23

let test_batched_matches_rows_relu_stack () =
  let r = rng () in
  let net =
    Mlp.create ~in_dim:3
      [
        Layer.dense ~rng:r ~in_dim:3 ~out_dim:6;
        Layer.leaky_relu ~slope:0.3 ();
        Layer.batch_norm ~momentum:0.3 ~dim:6 ();
        Layer.dense ~rng:r ~in_dim:6 ~out_dim:2;
      ]
  in
  batched_vs_rows_once net ~n:9 ~in_dim:3 ~out_dim:2 ~seed:31

(* Leaky ReLU's batched passes select their slope with a multiply by a
   two-entry table, where the per-sample oracle keeps the [if]. The
   bits must agree on every value arithmetic produces: ±0, ±∞, both
   signs of quiet NaN, subnormals (some whose slope product underflows
   to -0) and random signs, for inputs and for incoming gradients
   alike. *)
let specials =
  [| 0.; -0.; Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan;
     4.9e-324; -4.9e-324; 2.2e-308; -1e-310; 1e-300; -2.5e-320 |]

let special_rows ~seed ~rows ~cols =
  let r = Canopy_util.Prng.create seed in
  Array.init rows (fun _ ->
      Array.init cols (fun _ ->
          if Canopy_util.Prng.int r 3 = 0 then
            specials.(Canopy_util.Prng.int r (Array.length specials))
          else Canopy_util.Prng.uniform r (-3.) 3.))

let check_bits what want got =
  Alcotest.(check (array int64)) what
    (Array.map Int64.bits_of_float want)
    (Array.map Int64.bits_of_float got)

let test_leaky_batched_matches_rows_bits () =
  List.iter
    (fun slope ->
      let layer = Layer.leaky_relu ~slope () in
      let rows = special_rows ~seed:7 ~rows:7 ~cols:9 in
      let douts = special_rows ~seed:8 ~rows:7 ~cols:9 in
      let x = Mat.of_rows rows and dout = Mat.of_rows douts in
      let want_rows, rcache = Oracle.forward_rows layer rows in
      let want = Mat.raw (Mat.of_rows want_rows) in
      let name what = Printf.sprintf "slope %g: %s" slope what in
      let out, cache = Layer.forward layer x in
      check_bits (name "forward") want (Mat.raw out);
      let reused, _ = Layer.forward ~reuse_input:true layer (Mat.copy x) in
      check_bits (name "forward, reused input") want (Mat.raw reused);
      let folded = Mat.create ~rows:7 ~cols:9 in
      Layer.forward_eval ~dst:folded layer x;
      check_bits (name "forward_eval") want (Mat.raw folded);
      let dst = Mat.create ~rows:7 ~cols:9 in
      Layer.forward_eval_into ~dst layer x;
      check_bits (name "forward_eval_into") want (Mat.raw dst);
      (* The batched backward reads the sign bit of the cached output,
         the oracle that of the input: the same bit, so every cell
         matches, a negative input whose slope product underflows to -0
         included. *)
      let want_dx =
        Mat.raw (Mat.of_rows (Oracle.backward_rows layer rcache douts))
      in
      check_bits (name "backward") want_dx
        (Mat.raw (Layer.backward layer cache dout));
      check_bits (name "backward, reused dout") want_dx
        (Mat.raw (Layer.backward ~reuse_dout:true layer cache (Mat.copy dout))))
    [ 0.01; 0.3 ]

(* [Mlp.backward ~shards] runs one full-batch pass and splits only the
   weight-gradient sums; each shadow must hold the bits of a
   forward/backward over a copy of its rows. The shards cut at 16 rows
   as the TD3 fit does (one shard under 32 rows), so the batch sizes
   give last shards of 1 to 16 rows, and the gradients carry zeros past
   the 4-row cut-offs, where the kernels skip. *)
let test_backward_shards_match_copies () =
  List.iter
    (fun n ->
      let net = Mlp.critic ~rng:(rng ()) ~state_dim:5 ~action_dim:2 ~hidden:12 in
      let x =
        Mat.init ~rows:n ~cols:7 (fun i j ->
            if (i + j) mod 9 = 0 then 0. else Float.sin (float_of_int ((i * 7) + j)))
      in
      let dout =
        Mat.init ~rows:n ~cols:1 (fun i _ ->
            if i mod 5 = 0 then 0.
            else if i mod 7 = 0 then -0.
            else Float.cos (float_of_int i))
      in
      let nshards = if n < 32 then 1 else (n + 15) / 16 in
      let plan =
        Array.init nshards (fun s ->
            (16 * s, (if s = nshards - 1 then n else 16 * (s + 1)),
             Mlp.grad_shadow net))
      in
      List.iter (fun (_, g) -> Array.fill g 0 (Array.length g) 7.) (Mlp.params net);
      let _, tape = Mlp.forward_train net x in
      ignore (Mlp.backward ~input_grad:false ~shards:plan net tape dout);
      List.iter
        (fun (_, g) ->
          Alcotest.(check bool) "own accumulators untouched" true
            (Array.for_all (fun v -> Float.equal v 7.) g))
        (Mlp.params net);
      Array.iter
        (fun (lo, hi, shadow) ->
          let copy = Mlp.grad_shadow net in
          let _, tape = Mlp.forward_train copy (Mat.sub_rows x ~lo ~hi) in
          ignore
            (Mlp.backward ~input_grad:false copy tape (Mat.sub_rows dout ~lo ~hi));
          List.iteri
            (fun p ((_, want), (_, got)) ->
              check_bits (Printf.sprintf "n %d rows %d..%d param %d" n lo hi p)
                want got)
            (List.combine (Mlp.params copy) (Mlp.params shadow)))
        plan)
    [ 16; 24; 31; 33; 40; 50; 63; 64; 65; 100 ]

let test_forward_batch_matches_forward1 () =
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:3 ~hidden:8 ~out_dim:1 in
  let rows =
    Array.init 6 (fun i ->
        Array.init 3 (fun j -> Float.sin (float_of_int ((i * 3) + j))))
  in
  let out = Mat.create ~rows:6 ~cols:1 in
  Mlp.forward_batch ~dst:out net (Mat.of_rows rows);
  Array.iteri
    (fun i x ->
      Alcotest.(check (array (float 1e-9)))
        (Printf.sprintf "sample %d" i)
        (Mlp.forward net x) (Mat.row out i))
    rows

(* ------------------------------------------------------------------ *)
(* Batched eval inference (fleet serving path) *)

(* [forward_eval_into] is the one-GEMM-per-tick serving primitive: its
   claim is not closeness but bit-identity per row with [Mlp.forward],
   which is what the fleet-vs-scalar equivalence proofs lean on. The
   nets below get a few training steps first so batch-norm running
   stats are non-trivial before the eval path folds them in. *)

let eval_net () =
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:6 ~hidden:16 ~out_dim:2 in
  let warm =
    Mat.of_rows
      (Array.init 8 (fun i ->
           Array.init 6 (fun j -> Float.cos (float_of_int ((i * 7) + j)))))
  in
  for _ = 1 to 3 do
    ignore (Mlp.forward_train net warm)
  done;
  net

let bits a = Array.map Int64.bits_of_float a

let test_forward_eval_into_matches_forward () =
  let net = eval_net () in
  (* 17 rows trips the >=12-row packed-panel GEMM, so the batched path
     under test is the one the fleet actually runs, not a fallback. *)
  let rows =
    Array.init 17 (fun i ->
        Array.init 6 (fun j -> Float.sin (float_of_int ((i * 11) + j))))
  in
  let dst = Mat.create_uninit ~rows:17 ~cols:2 in
  Mlp.forward_eval_into ~dst net (Mat.of_rows rows);
  Array.iteri
    (fun i x ->
      check_bool
        (Printf.sprintf "row %d bit-identical to Mlp.forward" i)
        true
        (bits (Mat.row dst i) = bits (Mlp.forward net x)))
    rows

let test_forward_eval_into_warm_equals_cold () =
  let net = eval_net () in
  let x =
    Mat.of_rows
      (Array.init 13 (fun i ->
           Array.init 6 (fun j -> Float.sin (float_of_int ((i * 5) + j)))))
  in
  let run () =
    let dst = Mat.create ~rows:13 ~cols:2 in
    (* Poison dst: the into-path must overwrite every cell. *)
    Array.fill (Mat.raw dst) 0 (13 * 2) Float.nan;
    Mlp.forward_eval_into ~dst net x;
    bits (Mat.raw dst)
  in
  let cold = run () in
  (* Steady state: scratch slots are warm now; results must not move. *)
  check_bool "warm == cold" true (run () = cold);
  check_bool "third call stable" true (run () = cold)

let test_forward_eval_into_shape_checks () =
  let net = eval_net () in
  let x = Mat.create ~rows:3 ~cols:6 in
  check_bool "bad dst cols rejected" true
    (match
       Mlp.forward_eval_into ~dst:(Mat.create ~rows:3 ~cols:3) net x
     with
    | () -> false
    | exception Invalid_argument _ -> true);
  check_bool "bad dst rows rejected" true
    (match
       Mlp.forward_eval_into ~dst:(Mat.create ~rows:2 ~cols:2) net x
     with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Mlp structure *)

let test_mlp_actor_shape () =
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:35 ~hidden:16 ~out_dim:1 in
  Alcotest.(check int) "in" 35 (Mlp.in_dim net);
  Alcotest.(check int) "out" 1 (Mlp.out_dim net);
  let y = Mlp.forward net (Array.make 35 0.3) in
  check_bool "tanh bounded" true (Float.abs y.(0) <= 1.)

let test_mlp_critic_shape () =
  let net = Mlp.critic ~rng:(rng ()) ~state_dim:6 ~action_dim:1 ~hidden:8 in
  Alcotest.(check int) "in" 7 (Mlp.in_dim net);
  Alcotest.(check int) "out" 1 (Mlp.out_dim net)

let test_mlp_bad_shape_rejected () =
  Alcotest.check_raises "dense mismatch"
    (Invalid_argument "Mlp.create: dense expects 3 inputs, got 2") (fun () ->
      ignore
        (Mlp.create ~in_dim:2 [ Layer.dense ~rng:(rng ()) ~in_dim:3 ~out_dim:1 ]))

let test_mlp_copy_independent () =
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:4 ~hidden:8 ~out_dim:1 in
  let dup = Mlp.copy net in
  let x = [| 0.1; 0.2; 0.3; 0.4 |] in
  check_float "same output" (Mlp.forward net x).(0) (Mlp.forward dup x).(0);
  (* mutate the copy's first dense layer *)
  (match Mlp.layers dup with
  | Layer.Dense d :: _ -> Mat.set d.w 0 0 (Mat.get d.w 0 0 +. 10.)
  | _ -> assert false);
  check_bool "independent storage" true
    ((Mlp.forward net x).(0) <> (Mlp.forward dup x).(0))

let test_soft_update () =
  let src = Mlp.actor ~rng:(rng ()) ~in_dim:3 ~hidden:4 ~out_dim:1 in
  let dst = Mlp.copy src in
  (* push dst away, then tau=1 must restore equality with src *)
  (match Mlp.layers dst with
  | Layer.Dense d :: _ -> Mat.set d.w 0 0 99.
  | _ -> assert false);
  Mlp.soft_update ~tau:1. ~src ~dst;
  let x = [| 0.5; -0.5; 0.25 |] in
  check_float "tau=1 copies" (Mlp.forward src x).(0) (Mlp.forward dst x).(0)

let test_soft_update_partial () =
  let r = rng () in
  let src = Mlp.create ~in_dim:1 [ Layer.dense ~rng:r ~in_dim:1 ~out_dim:1 ] in
  let dst = Mlp.copy src in
  (match (Mlp.layers src, Mlp.layers dst) with
  | [ Layer.Dense s ], [ Layer.Dense d ] ->
      Mat.set s.w 0 0 10.;
      Mat.set d.w 0 0 0.;
      Mlp.soft_update ~tau:0.1 ~src ~dst;
      check_float "polyak step" 1. (Mat.get d.w 0 0)
  | _ -> assert false)

let test_param_count () =
  let net = Mlp.critic ~rng:(rng ()) ~state_dim:3 ~action_dim:1 ~hidden:8 in
  (* dense(4->8): 32+8; dense(8->8): 64+8; dense(8->1): 8+1 = 121 *)
  Alcotest.(check int) "param count" 121 (Mlp.param_count net)

(* ------------------------------------------------------------------ *)
(* Optimizer *)

let quadratic_minimize opt =
  (* minimize f(x) = (x - 3)^2 with the optimizer API *)
  let x = [| 0. |] and g = [| 0. |] in
  for _ = 1 to 2000 do
    g.(0) <- 2. *. (x.(0) -. 3.);
    Optimizer.step opt [ (x, g) ]
  done;
  x.(0)

let test_adam_converges () =
  let x = quadratic_minimize (Optimizer.adam ~lr:0.05 ()) in
  check_bool "adam near 3" true (Float.abs (x -. 3.) < 1e-3)

let test_clip_gradients () =
  let g1 = [| 3.; 0. |] and g2 = [| 0.; 4. |] in
  Optimizer.clip_gradients ~norm:2.5 [ ([| 0.; 0. |], g1); ([| 0.; 0. |], g2) ];
  let total = sqrt ((g1.(0) ** 2.) +. (g2.(1) ** 2.)) in
  check_bool "clipped to norm" true (Float.abs (total -. 2.5) < 1e-9)

let test_clip_noop_below_norm () =
  let g = [| 0.3; 0.4 |] in
  Optimizer.clip_gradients ~norm:10. [ ([| 0.; 0. |], g) ];
  Alcotest.(check (array (float 1e-12))) "unchanged" [| 0.3; 0.4 |] g

let test_mlp_regression_learns () =
  (* Train a small MLP to fit y = 2x - 1 on [-1,1]; the loss must drop by
     a large factor. Exercises forward_train/backward/Adam end to end. *)
  let r = rng () in
  let net =
    Mlp.create ~in_dim:1
      [
        Layer.dense ~rng:r ~in_dim:1 ~out_dim:16;
        Layer.leaky_relu ();
        Layer.dense ~rng:r ~in_dim:16 ~out_dim:1;
      ]
  in
  let opt = Optimizer.adam ~lr:1e-2 () in
  let data = Array.init 32 (fun i -> -1. +. (2. *. float_of_int i /. 31.)) in
  let loss () =
    Array.fold_left
      (fun acc x ->
        let y = (Mlp.forward net [| x |]).(0) in
        acc +. (((2. *. x) -. 1. -. y) ** 2.))
      0. data
    /. 32.
  in
  let initial = loss () in
  for _ = 1 to 300 do
    Mlp.zero_grad net;
    let batch = Mat.init ~rows:32 ~cols:1 (fun i _ -> data.(i)) in
    let preds, tape = Mlp.forward_train net batch in
    let dout =
      Mat.init ~rows:32 ~cols:1 (fun i _ ->
          2. *. (Mat.get preds i 0 -. ((2. *. data.(i)) -. 1.)) /. 32.)
    in
    ignore (Mlp.backward net tape dout);
    Optimizer.step opt (Mlp.params net)
  done;
  let final = loss () in
  check_bool
    (Printf.sprintf "loss dropped (%.4f -> %.4f)" initial final)
    true
    (final < initial /. 20.)

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

let test_checkpoint_roundtrip_string () =
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:6 ~hidden:8 ~out_dim:1 in
  let restored = Checkpoint.of_string (Checkpoint.to_string net) in
  let x = Array.init 6 (fun i -> 0.1 *. float_of_int i) in
  check_float "same output" (Mlp.forward net x).(0)
    (Mlp.forward restored x).(0);
  Alcotest.(check int) "same layer count"
    (List.length (Mlp.layers net))
    (List.length (Mlp.layers restored))

let test_checkpoint_roundtrip_file () =
  let net = Mlp.critic ~rng:(rng ()) ~state_dim:3 ~action_dim:2 ~hidden:4 in
  let path = Filename.temp_file "canopy" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Checkpoint.save net path;
      let restored = Checkpoint.load path in
      let x = [| 1.; -1.; 0.5; 0.2; -0.3 |] in
      check_float "same output" (Mlp.forward net x).(0)
        (Mlp.forward restored x).(0))

let test_checkpoint_preserves_running_stats () =
  let net =
    Mlp.create ~in_dim:2
      [ Layer.dense ~rng:(rng ()) ~in_dim:2 ~out_dim:2;
        Layer.batch_norm ~dim:2 () ]
  in
  (* push some batches through to move the running statistics *)
  ignore (Mlp.forward_train net (Mat.of_arrays [| [| 5.; 1. |]; [| 7.; -1. |] |]));
  let restored = Checkpoint.of_string (Checkpoint.to_string net) in
  let x = [| 2.; 3. |] in
  Alcotest.(check (array (float 1e-12)))
    "eval path identical" (Mlp.forward net x) (Mlp.forward restored x)

let test_checkpoint_rejects_garbage () =
  Alcotest.check_raises "bad magic" (Failure "Checkpoint: bad magic")
    (fun () -> ignore (Checkpoint.of_string "not a checkpoint\n"))

let expect_checkpoint_failure what s =
  match Checkpoint.of_string s with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail (what ^ ": corrupt checkpoint was accepted")

let test_checkpoint_rejects_truncated () =
  let full = Checkpoint.to_string (Mlp.actor ~rng:(rng ()) ~in_dim:4 ~hidden:6 ~out_dim:1) in
  (* Cut mid-file (half) and mid-last-line (all but 3 bytes). *)
  expect_checkpoint_failure "half"
    (String.sub full 0 (String.length full / 2));
  expect_checkpoint_failure "tail clipped"
    (String.sub full 0 (String.length full - 3))

let test_checkpoint_rejects_corrupted_field () =
  let full = Checkpoint.to_string (Mlp.critic ~rng:(rng ()) ~state_dim:2 ~action_dim:1 ~hidden:3) in
  (* Smash a float into a non-numeric token. *)
  let corrupted =
    match String.index_opt full 'x' with
    | Some i ->
        String.sub full 0 i ^ "q" ^ String.sub full (i + 1) (String.length full - i - 1)
    | None -> Alcotest.fail "expected %h floats in checkpoint"
  in
  expect_checkpoint_failure "corrupted float" corrupted

let test_checkpoint_rejects_trailing_garbage () =
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:3 ~hidden:4 ~out_dim:1 in
  let full = Checkpoint.to_string net in
  (* Trailing whitespace/newlines are fine... *)
  (match Checkpoint.of_string (full ^ "\n\n") with
  | _ -> ());
  (* ...but content after the declared layer count is not: a concatenated
     or partially overwritten file must fail loudly. *)
  expect_checkpoint_failure "appended second checkpoint" (full ^ full);
  expect_checkpoint_failure "appended junk line" (full ^ "leftover junk\n")

(* ------------------------------------------------------------------ *)
(* Optimizer snapshot / restore and Mlp.assign *)

let net_bits net =
  List.concat_map
    (fun (v, _) -> Array.to_list (Array.map Int64.bits_of_float v))
    (Mlp.params net)

let test_optimizer_snapshot_restore () =
  (* Two identical nets and optimizers; snapshot one mid-training, let it
     run ahead, restore, and re-run: trajectories must match bit-for-bit. *)
  let mk () = Mlp.actor ~rng:(Canopy_util.Prng.create 7) ~in_dim:2 ~hidden:4 ~out_dim:1 in
  let step net opt i =
    Mlp.zero_grad net;
    let x = Mat.of_arrays [| [| 0.3 *. float_of_int i; -0.1 |]; [| 0.9; 0.4 |] |] in
    let preds, tape = Mlp.forward_train net x in
    let dout = Mat.init ~rows:2 ~cols:1 (fun r _ -> Mat.get preds r 0 -. 0.5) in
    ignore (Mlp.backward ~input_grad:false net tape dout);
    Optimizer.step opt (Mlp.params net)
  in
  let net = mk () in
  let opt = Optimizer.adam ~lr:1e-2 () in
  for i = 1 to 5 do step net opt i done;
  let net_snap = Mlp.copy net in
  let opt_snap = Optimizer.snapshot opt in
  for i = 6 to 10 do step net opt i done;
  let ahead = net_bits net in
  (* Rewind and replay. *)
  Mlp.assign ~src:net_snap ~dst:net;
  Optimizer.restore opt opt_snap;
  for i = 6 to 10 do step net opt i done;
  check_bool "replay is bit-identical" true (net_bits net = ahead)

let test_optimizer_snapshot_is_deep () =
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:2 ~hidden:3 ~out_dim:1 in
  let opt = Optimizer.adam ~lr:1e-2 () in
  Mlp.zero_grad net;
  let preds, tape = Mlp.forward_train net (Mat.of_arrays [| [| 1.; 2. |]; [| 0.5; 1.5 |] |]) in
  ignore preds;
  ignore (Mlp.backward ~input_grad:false net tape (Mat.init ~rows:2 ~cols:1 (fun _ _ -> 0.1)));
  Optimizer.step opt (Mlp.params net);
  let snap = Optimizer.snapshot opt in
  (match snap.Optimizer.moments with
  | (_, m, _) :: _ ->
      let before = m.(0) in
      m.(0) <- 1e9;
      let snap2 = Optimizer.snapshot opt in
      (match snap2.Optimizer.moments with
      | (_, m2, _) :: _ ->
          check_bool "mutating a snapshot does not touch the optimizer" true
            (m2.(0) = before)
      | [] -> Alcotest.fail "no slots")
  | [] -> Alcotest.fail "no slots after an Adam step")

let test_assign_recovers_nan () =
  (* The rollback path must overwrite weights that are already NaN; a
     Polyak update with tau=1 would propagate them instead. *)
  let src = Mlp.actor ~rng:(Canopy_util.Prng.create 3) ~in_dim:2 ~hidden:3 ~out_dim:1 in
  let dst = Mlp.copy src in
  (match Mlp.params dst with
  | (v, _) :: _ -> v.(0) <- Float.nan
  | [] -> Alcotest.fail "no params");
  let gen = Mlp.generation dst in
  Mlp.assign ~src ~dst;
  check_bool "NaN overwritten" true (net_bits dst = net_bits src);
  Alcotest.(check int) "assign bumps generation" (gen + 1) (Mlp.generation dst);
  let x = [| 0.25; -0.75 |] in
  check_float "same output after assign" (Mlp.forward src x).(0)
    (Mlp.forward dst x).(0)

let test_generation_counter () =
  (* The parameter-generation counter keys the verifier-IR cache: any
     mutation path must bump it, and reads must not. *)
  let net = Mlp.actor ~rng:(rng ()) ~in_dim:3 ~hidden:4 ~out_dim:1 in
  Alcotest.(check int) "fresh net" 0 (Mlp.generation net);
  ignore (Mlp.forward net [| 0.1; 0.2; 0.3 |]);
  Alcotest.(check int) "eval forward does not bump" 0 (Mlp.generation net);
  ignore (Mlp.forward_train net (Mat.of_arrays [| [| 0.1; 0.2; 0.3 |] |]));
  Alcotest.(check int) "forward_train bumps" 1 (Mlp.generation net);
  Mlp.bump_generation net;
  Alcotest.(check int) "explicit bump" 2 (Mlp.generation net)

let test_generation_soft_update_bumps_dst () =
  let src = Mlp.actor ~rng:(rng ()) ~in_dim:3 ~hidden:4 ~out_dim:1 in
  let dst = Mlp.copy src in
  let src_gen = Mlp.generation src and dst_gen = Mlp.generation dst in
  Mlp.soft_update ~tau:0.5 ~src ~dst;
  Alcotest.(check int) "src untouched" src_gen (Mlp.generation src);
  Alcotest.(check int) "dst bumped" (dst_gen + 1) (Mlp.generation dst)

let suite =
  [
    ("dense forward", `Quick, test_dense_forward);
    ("leaky relu forward", `Quick, test_leaky_relu_forward);
    ("tanh forward", `Quick, test_tanh_forward);
    ("batchnorm identity at init", `Quick, test_batch_norm_identity_init);
    ("batchnorm normalizes batch", `Quick, test_batch_norm_normalizes_batch);
    ("batchnorm running stats", `Quick, test_batch_norm_updates_running_stats);
    ("layer out_dim", `Quick, test_out_dim);
    ("gradient: dense+tanh", `Quick, test_grad_dense_tanh);
    ("gradient: leaky relu", `Quick, test_grad_leaky_relu);
    ("gradient: batchnorm eval path", `Quick, test_grad_batchnorm_eval_path);
    ("gradient: batchnorm batch stats", `Quick, test_grad_batchnorm_batch_stats);
    ("input gradient", `Quick, test_backward_input_gradient);
    ("batched = rows: actor", `Quick, test_batched_matches_rows_actor);
    ("batched = rows: critic", `Quick, test_batched_matches_rows_critic);
    ("batched = rows: relu+bn stack", `Quick, test_batched_matches_rows_relu_stack);
    ("forward_batch = forward1", `Quick, test_forward_batch_matches_forward1);
    ( "forward_eval_into = forward (bits)",
      `Quick,
      test_forward_eval_into_matches_forward );
    ( "forward_eval_into warm = cold",
      `Quick,
      test_forward_eval_into_warm_equals_cold );
    ( "forward_eval_into shape checks",
      `Quick,
      test_forward_eval_into_shape_checks );
    ("mlp actor shape", `Quick, test_mlp_actor_shape);
    ("mlp critic shape", `Quick, test_mlp_critic_shape);
    ("mlp bad shape rejected", `Quick, test_mlp_bad_shape_rejected);
    ("mlp copy independent", `Quick, test_mlp_copy_independent);
    ("soft update tau=1", `Quick, test_soft_update);
    ("soft update partial", `Quick, test_soft_update_partial);
    ("param count", `Quick, test_param_count);
    ("adam converges", `Quick, test_adam_converges);
    ("gradient clipping", `Quick, test_clip_gradients);
    ("gradient clip noop", `Quick, test_clip_noop_below_norm);
    ("mlp regression learns", `Quick, test_mlp_regression_learns);
    ("checkpoint string roundtrip", `Quick, test_checkpoint_roundtrip_string);
    ("checkpoint file roundtrip", `Quick, test_checkpoint_roundtrip_file);
    ("checkpoint running stats", `Quick, test_checkpoint_preserves_running_stats);
    ("checkpoint rejects garbage", `Quick, test_checkpoint_rejects_garbage);
    ("checkpoint rejects truncated", `Quick, test_checkpoint_rejects_truncated);
    ("checkpoint rejects corrupted field", `Quick,
      test_checkpoint_rejects_corrupted_field);
    ("checkpoint rejects trailing garbage", `Quick,
      test_checkpoint_rejects_trailing_garbage);
    ("optimizer snapshot/restore replay", `Quick,
      test_optimizer_snapshot_restore);
    ("optimizer snapshot is deep", `Quick, test_optimizer_snapshot_is_deep);
    ("assign recovers NaN dst", `Quick, test_assign_recovers_nan);
    ("generation counter", `Quick, test_generation_counter);
    ("generation: soft update bumps dst", `Quick,
      test_generation_soft_update_bumps_dst);
    ( "leaky relu batched = rows (bits, special values)",
      `Quick,
      test_leaky_batched_matches_rows_bits );
    ("backward shards = copied shards (bits)", `Quick,
      test_backward_shards_match_copies);
  ]
