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

(* Per-sample reference caches (one Vec.t per sample). Kept as an
   independently-implemented path so the batched kernels can be
   equivalence-tested against it, and so the bench can quantify the
   batching speedup. *)
type rows_cache =
  | R_dense of Vec.t array
  | R_bn of {
      xhat : Vec.t array;
      inv_std : Vec.t;
      batch_stats : bool;
    }
  | R_leaky of float * Vec.t array
  | R_tanh of Vec.t array (* outputs *)

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

(* A positive slope keeps the activation sign-preserving, which the
   batched cache relies on (backward reads its mask from the output).
   The one exception is a negative input so small that its product with
   the slope rounds to -0: the output then reads as >= 0, and backward
   takes the positive arm where the per-sample reference takes the
   slope (DESIGN §7). *)
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

(* The batched passes below run on the flat [Mat.raw] arrays with unsafe
   accesses: shapes are validated at entry, every index is affine in loop
   counters bounded by those shapes, and avoiding the per-element bounds
   checks and closure calls of [Mat.get]/[Mat.init] is where most of the
   batching speedup over the per-sample reference comes from. *)

(* Leaky ReLU's two slopes, indexed by [Bool.to_int (v >= 0.)]: the
   batched passes select with a multiply instead of a branch, which the
   random signs of a training batch mispredict about half the time.
   The bits are those of [if v >= 0. then v else slope *. v]: [v *. 1.]
   is [v] for every value arithmetic produces (±0, ±∞ and quiet NaN
   included), and a NaN compares false, so it takes the slope arm as
   before. The per-sample reference passes keep the [if] form. *)
let leaky_tab slope = [| slope; 1. |]

(* The element-wise activations, shared by the three batched forwards:
   [dst.(i) <- f x.(i)] over every cell. [dst] has [x]'s shape and may
   be [x] itself (each cell is read before it is overwritten). *)
let activate ~dst layer x =
  let xd = Mat.raw x and od = Mat.raw dst in
  match layer with
  | Leaky_relu slope ->
      let tab = leaky_tab slope in
      for i = 0 to Array.length xd - 1 do
        let v = Array.unsafe_get xd i in
        Array.unsafe_set od i
          (v *. Array.unsafe_get tab (Bool.to_int (v >= 0.)))
      done
  | Tanh ->
      for i = 0 to Array.length xd - 1 do
        Array.unsafe_set od i (Float.tanh (Array.unsafe_get xd i))
      done
  | Dense _ | Batch_norm _ -> invalid_arg "Layer.activate: not an activation"

(* An element-wise layer's output: [x] itself under [reuse_input]. *)
let act_out ~reuse_input x =
  if reuse_input then x else Mat.create_uninit ~rows:(Mat.rows x) ~cols:(Mat.cols x)

let forward ?(reuse_input = false) layer x =
  let n = Mat.rows x in
  if n = 0 then invalid_arg "Layer.forward: empty batch";
  (* With [~reuse_input:true] the element-wise layers write their output
     into [x]'s storage instead of allocating a fresh [batch × dim]
     matrix. A 64×64 float array lands directly on the major heap, so
     inside an MLP chain — where each layer's input is the previous
     layer's freshly-allocated output — the reuse removes most of the
     allocation churn of a training step. *)
  match layer with
  | Dense d ->
      if Mat.cols x <> Mat.cols d.w then invalid_arg "Layer.forward: dims";
      (* One bias-fused GEMM for the whole batch: y = x·wᵀ + b. The
         output shape differs from the input's and the cache needs [x]
         intact, so [reuse_input] does not apply. *)
      let y = Mat.mat_mul_nt_bias x d.w d.b in
      (y, C_dense x)
  | Batch_norm bn ->
      let dim = Vec.dim bn.gamma in
      if Mat.cols x <> dim then invalid_arg "Layer.forward: dims";
      let use_batch_stats = n > 1 in
      let nf = float_of_int n in
      let xd = Mat.raw x in
      let gamma = bn.gamma and beta = bn.beta in
      if use_batch_stats then begin
        (* Column-wise mean/variance over the batch dimension, summed in
           ascending sample order (matches the per-sample reference). *)
        let mu = Vec.create dim and var = Vec.create dim in
        let inv_n = 1. /. nf in
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            Array.unsafe_set mu i
              (Array.unsafe_get mu i
              +. (inv_n *. Array.unsafe_get xd (base + i)))
          done
        done;
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            let d = Array.unsafe_get xd (base + i) -. Array.unsafe_get mu i in
            Array.unsafe_set var i (Array.unsafe_get var i +. (d *. d /. nf))
          done
        done;
        let inv_std = Vec.init dim (fun i -> 1. /. sqrt (var.(i) +. bn.eps)) in
        let xhat = Mat.create ~rows:n ~cols:dim in
        let xh = Mat.raw xhat in
        (* Normalize and scale-shift in one pass; [out] may alias [x]
           (each cell is read before it is overwritten). *)
        let out = if reuse_input then x else Mat.create ~rows:n ~cols:dim in
        let od = Mat.raw out in
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            let h =
              (Array.unsafe_get xd (base + i) -. Array.unsafe_get mu i)
              *. Array.unsafe_get inv_std i
            in
            Array.unsafe_set xh (base + i) h;
            Array.unsafe_set od (base + i)
              ((Array.unsafe_get gamma i *. h) +. Array.unsafe_get beta i)
          done
        done;
        bn_update_running bn mu var;
        (out, C_bn { xhat; inv_std; batch_stats = true })
      end
      else begin
        let inv_std =
          Vec.init dim (fun i -> 1. /. sqrt (bn.running_var.(i) +. bn.eps))
        in
        let xhat = Mat.create ~rows:n ~cols:dim in
        let xh = Mat.raw xhat and rm = bn.running_mean in
        let out = if reuse_input then x else Mat.create ~rows:n ~cols:dim in
        let od = Mat.raw out in
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            let h =
              (Array.unsafe_get xd (base + i) -. Array.unsafe_get rm i)
              *. Array.unsafe_get inv_std i
            in
            Array.unsafe_set xh (base + i) h;
            Array.unsafe_set od (base + i)
              ((Array.unsafe_get gamma i *. h) +. Array.unsafe_get beta i)
          done
        done;
        (out, C_bn { xhat; inv_std; batch_stats = false })
      end
  | Leaky_relu _ | Tanh ->
      (* The cache holds the output. Tanh's backward reads its outputs;
         leaky ReLU is sign-preserving (but for inputs that underflow
         to -0, see [leaky_relu]), so its backward mask reads the same
         from the output as from the (under reuse, overwritten) input. *)
      let out = act_out ~reuse_input x in
      activate ~dst:out layer x;
      (out, C_act out)

(* Cache-free eval-mode forward: skips the activation caches and, for
   batch-norm, the xhat matrix that only backward consumes. The running
   statistics fold into one per-channel affine map — the same folded
   form the abstract interpreter uses for its batch-norm transfer. *)
let forward_eval ?(reuse_input = false) layer x =
  let n = Mat.rows x in
  if n = 0 then invalid_arg "Layer.forward: empty batch";
  match layer with
  | Dense d ->
      if Mat.cols x <> Mat.cols d.w then invalid_arg "Layer.forward: dims";
      Mat.mat_mul_nt_bias x d.w d.b
  | Batch_norm bn ->
      let dim = Vec.dim bn.gamma in
      if Mat.cols x <> dim then invalid_arg "Layer.forward: dims";
      let scale =
        Vec.init dim (fun i -> bn.gamma.(i) /. sqrt (bn.running_var.(i) +. bn.eps))
      in
      let shift =
        Vec.init dim (fun i -> bn.beta.(i) -. (scale.(i) *. bn.running_mean.(i)))
      in
      let out = if reuse_input then x else Mat.create ~rows:n ~cols:dim in
      let xd = Mat.raw x and od = Mat.raw out in
      for b = 0 to n - 1 do
        let base = b * dim in
        for i = 0 to dim - 1 do
          Array.unsafe_set od (base + i)
            ((Array.unsafe_get scale i *. Array.unsafe_get xd (base + i))
            +. Array.unsafe_get shift i)
        done
      done;
      out
  | Leaky_relu _ | Tanh ->
      let out = act_out ~reuse_input x in
      activate ~dst:out layer x;
      out

(* Allocation-free batched eval forward, the inference pass: the dense
   arm runs the plain GEMM and adds the bias afterwards, the batch-norm
   arm the unfolded per-element expression [gamma·(x − mean)/std + beta]
   at the running statistics. Every GEMM cell is one ascending-k chain
   whichever kernel and chunking runs it, so each output row depends
   only on its own input row: a one-row call ([Mlp.forward]) and a
   fleet's thousand-row tick give a row the same bits. [dst] must not
   alias [x]. *)
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
      let xd = Mat.raw x and od = Mat.raw dst in
      let gamma = bn.gamma and beta = bn.beta in
      let rm = bn.running_mean and rv = bn.running_var in
      for b = 0 to n - 1 do
        let base = b * dim in
        for i = 0 to dim - 1 do
          let inv = 1. /. sqrt (Array.unsafe_get rv i +. bn.eps) in
          Array.unsafe_set od (base + i)
            ((Array.unsafe_get gamma i
             *. (Array.unsafe_get xd (base + i) -. Array.unsafe_get rm i)
             *. inv)
            +. Array.unsafe_get beta i)
        done
      done
  | Leaky_relu _ | Tanh ->
      if Mat.cols x <> Mat.cols dst then
        invalid_arg "Layer.forward_eval_into: dims";
      activate ~dst layer x

let backward ?(input_grad = true) ?(param_grads = true) ?(reuse_dout = false)
    ?shards layer cache dout =
  let n = Mat.rows dout in
  (* With [~reuse_dout:true] the element-wise layers write their input
     gradient into [dout]'s storage (every cell is read before it is
     overwritten), sparing one major-heap matrix per layer. Only valid
     when the caller is done with [dout] — inside an MLP backward walk
     each intermediate gradient is consumed exactly once. *)
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
                with the bits of a pass over a copy of its rows. *)
             Array.iter
               (fun (lo, hi, shard) ->
                 match shard with
                 | Dense s ->
                     Mat.mat_mul_tn_acc ~samples:(lo, hi) ~dst:s.dw dout x;
                     Mat.col_sum_acc ~samples:(lo, hi) ~dst:s.db dout
                 | Batch_norm _ | Leaky_relu _ | Tanh ->
                     invalid_arg "Layer.backward: shard layer does not match")
               shards);
      if input_grad then Mat.mat_mul dout d.w else dout
  | Batch_norm bn, C_bn c ->
      let dim = Vec.dim bn.gamma in
      if Option.is_some shards then
        invalid_arg "Layer.backward: shards on a batch-norm layer";
      if Mat.rows c.xhat <> n then invalid_arg "Layer.backward: batch size";
      if Mat.cols dout <> dim then invalid_arg "Layer.backward: dims";
      let dod = Mat.raw dout and xh = Mat.raw c.xhat in
      (* Parameter gradients are identical in both statistic regimes. *)
      let dgamma = bn.dgamma and dbeta = bn.dbeta in
      if param_grads then
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            let g = Array.unsafe_get dod (base + i) in
            Array.unsafe_set dgamma i
              (Array.unsafe_get dgamma i
              +. (g *. Array.unsafe_get xh (base + i)));
            Array.unsafe_set dbeta i (Array.unsafe_get dbeta i +. g)
          done
        done;
      if not c.batch_stats then begin
        (* Running statistics are constants: the map is affine. *)
        let dx = if reuse_dout then dout else Mat.create ~rows:n ~cols:dim in
        let dxd = Mat.raw dx and gamma = bn.gamma and istd = c.inv_std in
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            Array.unsafe_set dxd (base + i)
              (Array.unsafe_get dod (base + i)
              *. Array.unsafe_get gamma i *. Array.unsafe_get istd i)
          done
        done;
        dx
      end
      else begin
        (* Full batch-norm backward through the batch mean and variance.
           dxhat is element-wise in dout, so under reuse it overwrites
           dout in place; the final dx map is element-wise in dxhat and
           lands in the same storage again. *)
        let nf = float_of_int n in
        let sum_dxhat = Vec.create dim in
        let sum_dxhat_xhat = Vec.create dim in
        let dxhat = if reuse_dout then dout else Mat.create ~rows:n ~cols:dim in
        let dxh = Mat.raw dxhat and gamma = bn.gamma in
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            Array.unsafe_set dxh (base + i)
              (Array.unsafe_get dod (base + i) *. Array.unsafe_get gamma i)
          done
        done;
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            let g = Array.unsafe_get dxh (base + i) in
            Array.unsafe_set sum_dxhat i (Array.unsafe_get sum_dxhat i +. g);
            Array.unsafe_set sum_dxhat_xhat i
              (Array.unsafe_get sum_dxhat_xhat i
              +. (g *. Array.unsafe_get xh (base + i)))
          done
        done;
        let dx = if reuse_dout then dxhat else Mat.create ~rows:n ~cols:dim in
        let dxd = Mat.raw dx and istd = c.inv_std in
        for b = 0 to n - 1 do
          let base = b * dim in
          for i = 0 to dim - 1 do
            Array.unsafe_set dxd (base + i)
              (Array.unsafe_get istd i /. nf
              *. ((nf *. Array.unsafe_get dxh (base + i))
                  -. Array.unsafe_get sum_dxhat i
                  -. (Array.unsafe_get xh (base + i)
                     *. Array.unsafe_get sum_dxhat_xhat i)))
          done
        done;
        dx
      end
  | Leaky_relu slope, C_act x ->
      if Mat.rows x <> n || Mat.cols x <> Mat.cols dout then
        invalid_arg "Layer.backward: dims";
      let dx = if reuse_dout then dout else Mat.create ~rows:n ~cols:(Mat.cols dout) in
      let dxd = Mat.raw dx and dod = Mat.raw dout and xd = Mat.raw x in
      let tab = leaky_tab slope in
      for i = 0 to Array.length dod - 1 do
        Array.unsafe_set dxd i
          (Array.unsafe_get dod i
          *. Array.unsafe_get tab (Bool.to_int (Array.unsafe_get xd i >= 0.)))
      done;
      dx
  | Tanh, C_act y ->
      if Mat.rows y <> n || Mat.cols y <> Mat.cols dout then
        invalid_arg "Layer.backward: dims";
      let dx = if reuse_dout then dout else Mat.create ~rows:n ~cols:(Mat.cols dout) in
      let dxd = Mat.raw dx and dod = Mat.raw dout and yd = Mat.raw y in
      for i = 0 to Array.length dod - 1 do
        let t = Array.unsafe_get yd i in
        Array.unsafe_set dxd i
          (Array.unsafe_get dod i *. (1. -. (t *. t)))
      done;
      dx
  | (Dense _ | Batch_norm _ | Leaky_relu _ | Tanh), _ ->
      invalid_arg "Layer.backward: cache does not match layer"

(* ------------------------------------------------------------------ *)
(* Per-sample reference passes (the pre-batching implementation) *)

let forward_rows layer batch =
  let n = Array.length batch in
  if n = 0 then invalid_arg "Layer.forward_rows: empty batch";
  match layer with
  | Dense d ->
      let out =
        Array.map
          (fun x ->
            let y = Mat.mat_vec d.w x in
            Vec.axpy ~alpha:1. ~x:d.b ~y;
            y)
          batch
      in
      (out, R_dense batch)
  | Batch_norm bn ->
      let dim = Vec.dim bn.gamma in
      if n > 1 then begin
        let mu = Vec.create dim and var = Vec.create dim in
        Array.iter (fun x -> Vec.axpy ~alpha:(1. /. float_of_int n) ~x ~y:mu)
          batch;
        Array.iter
          (fun x ->
            for i = 0 to dim - 1 do
              let d = x.(i) -. mu.(i) in
              var.(i) <- var.(i) +. (d *. d /. float_of_int n)
            done)
          batch;
        let inv_std = Vec.init dim (fun i -> 1. /. sqrt (var.(i) +. bn.eps)) in
        let xhat =
          Array.map
            (fun x -> Vec.init dim (fun i -> (x.(i) -. mu.(i)) *. inv_std.(i)))
            batch
        in
        let out =
          Array.map
            (fun xh ->
              Vec.init dim (fun i -> (bn.gamma.(i) *. xh.(i)) +. bn.beta.(i)))
            xhat
        in
        bn_update_running bn mu var;
        (out, R_bn { xhat; inv_std; batch_stats = true })
      end
      else begin
        let inv_std =
          Vec.init dim (fun i -> 1. /. sqrt (bn.running_var.(i) +. bn.eps))
        in
        let xhat =
          Array.map
            (fun x ->
              Vec.init dim (fun i ->
                  (x.(i) -. bn.running_mean.(i)) *. inv_std.(i)))
            batch
        in
        let out =
          Array.map
            (fun xh ->
              Vec.init dim (fun i -> (bn.gamma.(i) *. xh.(i)) +. bn.beta.(i)))
            xhat
        in
        (out, R_bn { xhat; inv_std; batch_stats = false })
      end
  | Leaky_relu slope ->
      let leaky = Array.map (fun v -> if v >= 0. then v else slope *. v) in
      (Array.map leaky batch, R_leaky (slope, batch))
  | Tanh ->
      let out = Array.map (Array.map Float.tanh) batch in
      (out, R_tanh out)

let backward_rows layer cache dout =
  match (layer, cache) with
  | Dense d, R_dense xs ->
      let n = Array.length xs in
      if Array.length dout <> n then
        invalid_arg "Layer.backward_rows: batch size";
      for b = 0 to n - 1 do
        Mat.outer_acc d.dw dout.(b) xs.(b);
        Vec.axpy ~alpha:1. ~x:dout.(b) ~y:d.db
      done;
      Array.map (fun dy -> Mat.mat_tvec d.w dy) dout
  | Batch_norm bn, R_bn c ->
      let n = Array.length c.xhat in
      let dim = Vec.dim bn.gamma in
      if Array.length dout <> n then
        invalid_arg "Layer.backward_rows: batch size";
      (* Parameter gradients are identical in both statistic regimes. *)
      for b = 0 to n - 1 do
        for i = 0 to dim - 1 do
          bn.dgamma.(i) <- bn.dgamma.(i) +. (dout.(b).(i) *. c.xhat.(b).(i));
          bn.dbeta.(i) <- bn.dbeta.(i) +. dout.(b).(i)
        done
      done;
      if not c.batch_stats then
        (* Running statistics are constants: the map is affine. *)
        Array.map
          (fun dy ->
            Vec.init dim (fun i -> dy.(i) *. bn.gamma.(i) *. c.inv_std.(i)))
          dout
      else begin
        (* Full batch-norm backward through the batch mean and variance. *)
        let nf = float_of_int n in
        let sum_dxhat = Vec.create dim in
        let sum_dxhat_xhat = Vec.create dim in
        let dxhat =
          Array.map
            (fun dy -> Vec.init dim (fun i -> dy.(i) *. bn.gamma.(i)))
            dout
        in
        for b = 0 to n - 1 do
          for i = 0 to dim - 1 do
            sum_dxhat.(i) <- sum_dxhat.(i) +. dxhat.(b).(i);
            sum_dxhat_xhat.(i) <-
              sum_dxhat_xhat.(i) +. (dxhat.(b).(i) *. c.xhat.(b).(i))
          done
        done;
        Array.mapi
          (fun b _ ->
            Vec.init dim (fun i ->
                c.inv_std.(i) /. nf
                *. ((nf *. dxhat.(b).(i))
                    -. sum_dxhat.(i)
                    -. (c.xhat.(b).(i) *. sum_dxhat_xhat.(i)))))
          dout
      end
  | Leaky_relu slope, R_leaky (slope', xs) ->
      assert (slope = slope');
      Array.mapi
        (fun b dy ->
          Array.mapi (fun i g -> if xs.(b).(i) >= 0. then g else slope *. g) dy)
        dout
  | Tanh, R_tanh ys ->
      Array.mapi
        (fun b dy ->
          Array.mapi (fun i g -> g *. (1. -. (ys.(b).(i) *. ys.(b).(i)))) dy)
        dout
  | (Dense _ | Batch_norm _ | Leaky_relu _ | Tanh), _ ->
      invalid_arg "Layer.backward_rows: cache does not match layer"

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
