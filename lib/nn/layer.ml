open Canopy_tensor

type dense = { w : Mat.t; b : Vec.t; dw : Mat.t; db : Vec.t }

type batch_norm = {
  gamma : Vec.t;
  beta : Vec.t;
  dgamma : Vec.t;
  dbeta : Vec.t;
  running_mean : Vec.t;
  running_var : Vec.t;
  momentum : float;
  eps : float;
}

type t =
  | Dense of dense
  | Batch_norm of batch_norm
  | Leaky_relu of float
  | Tanh

(* Batched caches carry [batch × dim] matrices. *)
type cache =
  | C_dense of Mat.t (* input batch *)
  | C_bn of { xhat : Mat.t; inv_std : Vec.t; batch_stats : bool }
  | C_act of Mat.t (* an activation's outputs *)

let dense ~rng ~in_dim ~out_dim =
  if in_dim <= 0 || out_dim <= 0 then invalid_arg "Layer.dense: dims";
  (* He initialization suits the (leaky-)ReLU activations used here. *)
  let scale = sqrt (2. /. float_of_int in_dim) in
  let w =
    Mat.init ~rows:out_dim ~cols:in_dim (fun _ _ ->
        Canopy_util.Prng.gaussian_scaled rng ~mu:0. ~sigma:scale)
  in
  Dense
    {
      w;
      b = Vec.create out_dim;
      dw = Mat.create ~rows:out_dim ~cols:in_dim;
      db = Vec.create out_dim;
    }

let batch_norm ?(momentum = 0.1) ?(eps = 1e-5) ~dim () =
  if dim <= 0 then invalid_arg "Layer.batch_norm: dim";
  let ones = Vec.init dim (fun _ -> 1.) in
  Batch_norm
    {
      gamma = Vec.copy ones;
      beta = Vec.create dim;
      dgamma = Vec.create dim;
      dbeta = Vec.create dim;
      running_mean = Vec.create dim;
      running_var = Vec.copy ones;
      momentum;
      eps;
    }

(* A positive slope keeps every input's sign bit in the output: a
   negative input stays negative even where its slope product underflows
   to -0, -0 stays -0 and a NaN keeps its sign. The batched backward
   relies on it: it reads its slope from the sign bit of the cached
   output, which selects the arm the input's sign bit would (DESIGN §7). *)
let leaky_relu ?(slope = 0.01) () =
  if slope <= 0. then invalid_arg "Layer.leaky_relu: slope must be positive";
  Leaky_relu slope
let tanh = Tanh

let out_dim ~in_dim = function
  | Dense d -> Mat.rows d.w
  | Batch_norm _ | Leaky_relu _ | Tanh -> in_dim

(* ------------------------------------------------------------------ *)
(* Batched passes over [batch × dim] matrices *)

(* Fold the batch statistics into the running estimates. *)
let bn_update_running bn mu var =
  for i = 0 to Vec.dim bn.gamma - 1 do
    bn.running_mean.(i) <-
      ((1. -. bn.momentum) *. bn.running_mean.(i)) +. (bn.momentum *. mu.(i));
    bn.running_var.(i) <-
      ((1. -. bn.momentum) *. bn.running_var.(i)) +. (bn.momentum *. var.(i))
  done

(* The batched passes below run on the flat [Mat.raw] arrays: shapes are
   validated at entry, the element-wise work runs in [Elementwise]'s
   kernels (AVX2 C where the host has it, the same bits either way), and
   the few loops left here use unsafe accesses whose indices are affine
   in loop counters bounded by those shapes. *)

(* The matrices and vectors one layer's training pass writes, kept by
   the caller across passes ([Mlp.workspace]): a matrix is allocated the
   first time a shape is asked for and reused while the shape holds, so
   a steady-state pass allocates none. Slots: the forward output, the
   batch-norm [xhat], the input gradient; the batch-norm vectors are
   mu, var, inv_std and the backward's two column sums. *)
type buffers = { mats : Mat.t option array; mutable stats : Vec.t array }

let slot_out = 0
let slot_xhat = 1
let slot_dx = 2
let buffers () = { mats = Array.make 3 None; stats = [||] }

let take ws slot ~rows ~cols =
  match ws.mats.(slot) with
  | Some m when Mat.rows m = rows && Mat.cols m = cols -> m
  | _ ->
      let m = Mat.create_uninit ~rows ~cols in
      ws.mats.(slot) <- Some m;
      m

let stats ws ~dim =
  if Array.length ws.stats = 0 || Vec.dim ws.stats.(0) <> dim then
    ws.stats <- Array.init 5 (fun _ -> Vec.create dim);
  ws.stats

(* Per-domain scratch arena for the eval passes' per-column batch-norm
   coefficients (DESIGN §10 ownership rules): slot 0 holds the folded
   [scale | shift] of [forward_eval], slot 1 the inverse deviations of
   [forward_eval_into]. Each is fully written before it is read. *)
let scratch_key : Canopy_util.Scratch.t Domain.DLS.key =
  Domain.DLS.new_key Canopy_util.Scratch.create

let coefficients ~slot ~len =
  Canopy_util.Scratch.get (Domain.DLS.get scratch_key) ~slot ~len

(* The element-wise activations, shared by the three batched forwards:
   [dst.(i) <- f x.(i)] over every cell. [dst] has [x]'s shape and may
   be [x] itself (each cell is read before it is overwritten). *)
let activate ~dst layer x =
  let xd = Mat.raw x and od = Mat.raw dst in
  match layer with
  | Leaky_relu slope -> Elementwise.leaky ~slope xd ~dst:od
  | Tanh ->
      for i = 0 to Array.length xd - 1 do
        Array.unsafe_set od i (Float.tanh (Array.unsafe_get xd i))
      done
  | Dense _ | Batch_norm _ -> invalid_arg "Layer.activate: not an activation"

let forward ?(reuse_input = false) ?(ws = buffers ()) layer x =
  let n = Mat.rows x in
  if n = 0 then invalid_arg "Layer.forward: empty batch";
  (* With [~reuse_input:true] the element-wise layers write their output
     into [x]'s storage instead of a buffer of their own. *)
  match layer with
  | Dense d ->
      if Mat.cols x <> Mat.cols d.w then invalid_arg "Layer.forward: dims";
      (* One bias-fused GEMM for the whole batch: y = x·wᵀ + b. The
         output shape differs from the input's and the cache needs [x]
         intact, so [reuse_input] does not apply. *)
      let y = take ws slot_out ~rows:n ~cols:(Mat.rows d.w) in
      Mat.mat_mul_nt_bias_into ~dst:y x d.w d.b;
      (y, C_dense x)
  | Batch_norm bn ->
      let dim = Vec.dim bn.gamma in
      if Mat.cols x <> dim then invalid_arg "Layer.forward: dims";
      let st = stats ws ~dim in
      let inv_std = st.(2) in
      let batch_stats = n > 1 in
      (* Column-wise mean/variance over the batch dimension, summed in
         ascending sample order (as the per-sample oracle sums); a
         one-row batch has none and normalizes with the running ones. *)
      let mu, var =
        if batch_stats then begin
          Elementwise.bn_stats (Mat.raw x) ~mu:st.(0) ~var:st.(1) ~rows:n ~dim;
          (st.(0), st.(1))
        end
        else (bn.running_mean, bn.running_var)
      in
      for i = 0 to dim - 1 do
        inv_std.(i) <- 1. /. sqrt (var.(i) +. bn.eps)
      done;
      let xhat = take ws slot_xhat ~rows:n ~cols:dim in
      (* Normalize and scale-shift in one pass; [out] may alias [x]
         (each cell is read before it is overwritten). *)
      let out = if reuse_input then x else take ws slot_out ~rows:n ~cols:dim in
      Elementwise.bn_normalize (Mat.raw x) ~mu ~inv_std ~gamma:bn.gamma
        ~beta:bn.beta ~xhat:(Mat.raw xhat) ~out:(Mat.raw out) ~rows:n ~dim;
      if batch_stats then bn_update_running bn mu var;
      (out, C_bn { xhat; inv_std; batch_stats })
  | Leaky_relu _ | Tanh ->
      (* The cache holds the output. Tanh's backward reads its outputs;
         leaky ReLU keeps the sign bit (see [leaky_relu]), so its
         backward mask reads the same from the output as from the (under
         reuse, overwritten) input. *)
      let out =
        if reuse_input then x
        else take ws slot_out ~rows:n ~cols:(Mat.cols x)
      in
      activate ~dst:out layer x;
      (out, C_act out)

(* Cache-free eval-mode forward: skips the activation caches and, for
   batch-norm, the xhat matrix that only backward consumes. The running
   statistics fold into one per-channel affine map — the same folded
   form the abstract interpreter uses for its batch-norm transfer. *)
let forward_eval ~dst layer x =
  let n = Mat.rows x in
  if n = 0 then invalid_arg "Layer.forward_eval: empty batch";
  if Mat.rows dst <> n then invalid_arg "Layer.forward_eval: rows";
  match layer with
  | Dense d ->
      if Mat.cols x <> Mat.cols d.w || Mat.cols dst <> Mat.rows d.w then
        invalid_arg "Layer.forward_eval: dims";
      Mat.mat_mul_nt_bias_into ~dst x d.w d.b
  | Batch_norm bn ->
      let dim = Vec.dim bn.gamma in
      if Mat.cols x <> dim || Mat.cols dst <> dim then
        invalid_arg "Layer.forward_eval: dims";
      (* [scale] in cells [0, dim), [shift] in [dim, 2·dim). *)
      let c = coefficients ~slot:0 ~len:(2 * dim) in
      for i = 0 to dim - 1 do
        let scale = bn.gamma.(i) /. sqrt (bn.running_var.(i) +. bn.eps) in
        c.(i) <- scale;
        c.(dim + i) <- bn.beta.(i) -. (scale *. bn.running_mean.(i))
      done;
      let xd = Mat.raw x and od = Mat.raw dst in
      for b = 0 to n - 1 do
        let base = b * dim in
        for i = 0 to dim - 1 do
          Array.unsafe_set od (base + i)
            ((Array.unsafe_get c i *. Array.unsafe_get xd (base + i))
            +. Array.unsafe_get c (dim + i))
        done
      done
  | Leaky_relu _ | Tanh ->
      if Mat.cols x <> Mat.cols dst then invalid_arg "Layer.forward_eval: dims";
      activate ~dst layer x

(* Allocation-free batched eval forward, the inference pass: the dense
   arm runs the plain GEMM and adds the bias afterwards, the batch-norm
   arm the unfolded per-element expression [gamma·(x − mean)/std + beta]
   at the running statistics, with each column's [1/std] formed once
   (the value every row of the column used to recompute). Every GEMM
   cell is one ascending-k chain whichever kernel and chunking runs it,
   so each output row depends only on its own input row: a one-row call
   ([Mlp.forward]) and a fleet's thousand-row tick give a row the same
   bits. [dst] must not alias [x]. *)
let forward_eval_into ~dst layer x =
  let n = Mat.rows x in
  if n = 0 then invalid_arg "Layer.forward_eval_into: empty batch";
  if Mat.rows dst <> n then invalid_arg "Layer.forward_eval_into: rows";
  match layer with
  | Dense d ->
      if Mat.cols x <> Mat.cols d.w then
        invalid_arg "Layer.forward_eval_into: dims";
      if Mat.cols dst <> Mat.rows d.w then
        invalid_arg "Layer.forward_eval_into: dims";
      Mat.mat_mul_nt_into ~dst x d.w;
      Mat.add_row dst d.b
  | Batch_norm bn ->
      let dim = Vec.dim bn.gamma in
      if Mat.cols x <> dim || Mat.cols dst <> dim then
        invalid_arg "Layer.forward_eval_into: dims";
      let inv = coefficients ~slot:1 ~len:dim in
      for i = 0 to dim - 1 do
        inv.(i) <- 1. /. sqrt (bn.running_var.(i) +. bn.eps)
      done;
      let xd = Mat.raw x and od = Mat.raw dst in
      let gamma = bn.gamma and beta = bn.beta and rm = bn.running_mean in
      for b = 0 to n - 1 do
        let base = b * dim in
        for i = 0 to dim - 1 do
          Array.unsafe_set od (base + i)
            ((Array.unsafe_get gamma i
             *. (Array.unsafe_get xd (base + i) -. Array.unsafe_get rm i)
             *. Array.unsafe_get inv i)
            +. Array.unsafe_get beta i)
        done
      done
  | Leaky_relu _ | Tanh ->
      if Mat.cols x <> Mat.cols dst then
        invalid_arg "Layer.forward_eval_into: dims";
      activate ~dst layer x

let backward ?(input_grad = true) ?(param_grads = true) ?(reuse_dout = false)
    ?shards ?(ws = buffers ()) layer cache dout =
  let n = Mat.rows dout in
  (* With [~reuse_dout:true] the element-wise layers write their input
     gradient into [dout]'s storage (every cell is read before it is
     overwritten) instead of a buffer of their own. Only valid when the
     caller is done with [dout] — inside an MLP backward walk each
     intermediate gradient is consumed exactly once. *)
  let grad_out ~cols =
    if reuse_dout then dout else take ws slot_dx ~rows:n ~cols
  in
  match (layer, cache) with
  | Dense d, C_dense x ->
      if Mat.rows x <> n then invalid_arg "Layer.backward: batch size";
      (* dw += doutᵀ·x, db += column sums, dx = dout·w — three batched
         kernels instead of 3n vector ops. The dx GEMM is skipped when the
         caller does not consume input gradients (a fit's first layer),
         the other two when it does not consume parameter gradients (a
         critic used as the actor's gradient conduit). *)
      (if param_grads then
         match shards with
         | None ->
             Mat.mat_mul_tn_acc ~dst:d.dw dout x;
             Mat.col_sum_acc ~dst:d.db dout
         | Some shards ->
             (* Each shard's samples sum into that shard's accumulators,
                overwriting them, with the bits of zeroing them and then
                running a pass over a copy of its rows. *)
             Array.iter
               (fun (lo, hi, shard) ->
                 match shard with
                 | Dense s ->
                     Mat.mat_mul_tn ~samples:(lo, hi) ~dst:s.dw dout x;
                     Mat.col_sum ~samples:(lo, hi) ~dst:s.db dout
                 | Batch_norm _ | Leaky_relu _ | Tanh ->
                     invalid_arg "Layer.backward: shard layer does not match")
               shards);
      if input_grad then begin
        let dx = take ws slot_dx ~rows:n ~cols:(Mat.cols d.w) in
        Mat.mat_mul_into ~dst:dx dout d.w;
        dx
      end
      else dout
  | Batch_norm bn, C_bn c ->
      let dim = Vec.dim bn.gamma in
      if Option.is_some shards then
        invalid_arg "Layer.backward: shards on a batch-norm layer";
      if Mat.rows c.xhat <> n then invalid_arg "Layer.backward: batch size";
      if Mat.cols dout <> dim then invalid_arg "Layer.backward: dims";
      let st = stats ws ~dim in
      let dod = Mat.raw dout and xh = Mat.raw c.xhat in
      (* Parameter gradients are identical in both statistic regimes;
         the two column sums serve the batch-statistics backward. *)
      Elementwise.bn_backward_sums ~param_grads ~dout:dod ~xhat:xh
        ~gamma:bn.gamma ~dgamma:bn.dgamma ~dbeta:bn.dbeta ~s1:st.(3)
        ~s2:st.(4) ~rows:n ~dim;
      let dx = grad_out ~cols:dim in
      let dxd = Mat.raw dx and gamma = bn.gamma and istd = c.inv_std in
      if c.batch_stats then
        (* Full batch-norm backward through the batch mean and variance;
           [dx] may be [dout], each cell read before it is written. *)
        Elementwise.bn_backward_dx ~dout:dod ~xhat:xh ~gamma ~inv_std:istd
          ~s1:st.(3) ~s2:st.(4) ~dx:dxd ~rows:n ~dim
      else
        (* Running statistics are constants: the map is affine. *)
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            Array.unsafe_set dxd (base + i)
              (Array.unsafe_get dod (base + i)
              *. Array.unsafe_get gamma i *. Array.unsafe_get istd i)
          done
        done;
      dx
  | Leaky_relu slope, C_act y ->
      if Mat.rows y <> n || Mat.cols y <> Mat.cols dout then
        invalid_arg "Layer.backward: dims";
      let dx = grad_out ~cols:(Mat.cols dout) in
      Elementwise.leaky_backward ~slope ~out:(Mat.raw y) ~dout:(Mat.raw dout)
        ~dst:(Mat.raw dx);
      dx
  | Tanh, C_act y ->
      if Mat.rows y <> n || Mat.cols y <> Mat.cols dout then
        invalid_arg "Layer.backward: dims";
      let dx = grad_out ~cols:(Mat.cols dout) in
      let dxd = Mat.raw dx and dod = Mat.raw dout and yd = Mat.raw y in
      for i = 0 to Array.length dod - 1 do
        let t = Array.unsafe_get yd i in
        Array.unsafe_set dxd i
          (Array.unsafe_get dod i *. (1. -. (t *. t)))
      done;
      dx
  | (Dense _ | Batch_norm _ | Leaky_relu _ | Tanh), _ ->
      invalid_arg "Layer.backward: cache does not match layer"

let zero_grad = function
  | Dense d ->
      Mat.fill d.dw 0.;
      Vec.fill d.db 0.
  | Batch_norm bn ->
      Vec.fill bn.dgamma 0.;
      Vec.fill bn.dbeta 0.
  | Leaky_relu _ | Tanh -> ()

let params = function
  | Dense d -> [ (Mat.raw d.w, Mat.raw d.dw); (d.b, d.db) ]
  | Batch_norm bn -> [ (bn.gamma, bn.dgamma); (bn.beta, bn.dbeta) ]
  | Leaky_relu _ | Tanh -> []

let copy = function
  | Dense d ->
      Dense
        { w = Mat.copy d.w; b = Vec.copy d.b; dw = Mat.copy d.dw;
          db = Vec.copy d.db }
  | Batch_norm bn ->
      Batch_norm
        {
          bn with
          gamma = Vec.copy bn.gamma;
          beta = Vec.copy bn.beta;
          dgamma = Vec.copy bn.dgamma;
          dbeta = Vec.copy bn.dbeta;
          running_mean = Vec.copy bn.running_mean;
          running_var = Vec.copy bn.running_var;
        }
  | (Leaky_relu _ | Tanh) as l -> l

(* A gradient shadow shares the parameter arrays (so an optimizer step
   through the shadow's [params] updates the real network) but owns fresh
   gradient accumulators — the per-shard write targets of the data-parallel
   TD3 update. Batch-norm running statistics stay shared too: shadows are
   only legal for nets whose training forward has no batch statistics
   (no [Batch_norm] layer), which [Mlp.grad_shadow] checks first. *)
let grad_shadow = function
  | Dense d ->
      Dense
        { d with
          dw = Mat.create ~rows:(Mat.rows d.dw) ~cols:(Mat.cols d.dw);
          db = Vec.create (Vec.dim d.db) }
  | Batch_norm bn ->
      Batch_norm
        { bn with
          dgamma = Vec.create (Vec.dim bn.dgamma);
          dbeta = Vec.create (Vec.dim bn.dbeta) }
  | (Leaky_relu _ | Tanh) as l -> l
