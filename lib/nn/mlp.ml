open Canopy_tensor

type t = {
  in_dim : int;
  out_dim : int;
  layers : Layer.t list;
  mutable generation : int;
      (* Bumped whenever learned parameters or batch-norm running
         statistics change, so derived read-only views (e.g. the
         verifier IR in [Canopy_absint.Anet]) can cache against it. *)
}

let infer_out_dim in_dim layers =
  List.fold_left
    (fun dim layer ->
      (match layer with
      | Layer.Dense d ->
          if Mat.cols d.w <> dim then
            invalid_arg
              (Printf.sprintf "Mlp.create: dense expects %d inputs, got %d"
                 (Mat.cols d.w) dim)
      | Layer.Batch_norm bn ->
          if Vec.dim bn.gamma <> dim then
            invalid_arg "Mlp.create: batch-norm dimension mismatch"
      | Layer.Leaky_relu _ | Layer.Tanh -> ());
      Layer.out_dim ~in_dim:dim layer)
    in_dim layers

let create ~in_dim layers =
  if in_dim <= 0 then invalid_arg "Mlp.create: in_dim";
  { in_dim; out_dim = infer_out_dim in_dim layers; layers; generation = 0 }

let actor ~rng ~in_dim ~hidden ~out_dim =
  create ~in_dim
    [
      Layer.dense ~rng ~in_dim ~out_dim:hidden;
      Layer.batch_norm ~dim:hidden ();
      Layer.leaky_relu ();
      Layer.dense ~rng ~in_dim:hidden ~out_dim:hidden;
      Layer.batch_norm ~dim:hidden ();
      Layer.leaky_relu ();
      Layer.dense ~rng ~in_dim:hidden ~out_dim;
      Layer.tanh;
    ]

let critic ~rng ~state_dim ~action_dim ~hidden =
  let in_dim = state_dim + action_dim in
  create ~in_dim
    [
      Layer.dense ~rng ~in_dim ~out_dim:hidden;
      Layer.leaky_relu ();
      Layer.dense ~rng ~in_dim:hidden ~out_dim:hidden;
      Layer.leaky_relu ();
      Layer.dense ~rng ~in_dim:hidden ~out_dim:1;
    ]

let in_dim t = t.in_dim
let out_dim t = t.out_dim
let layers t = t.layers
let generation t = t.generation
let bump_generation t = t.generation <- t.generation + 1

(* Inside a chain every intermediate activation is owned by the chain
   (each layer's input is the previous layer's freshly-allocated output),
   so element-wise layers may overwrite it in place. Only the caller's
   input matrix — the first layer's input — must stay intact. *)
let forward_batch t x =
  if Mat.cols x <> t.in_dim then invalid_arg "Mlp.forward_batch: input dim";
  let _, out =
    List.fold_left
      (fun (first, acc) layer ->
        (false, Layer.forward_eval ~reuse_input:(not first) layer acc))
      (true, x) t.layers
  in
  out

(* Per-domain scratch arena of the inference pass, for one-row calls
   and fleet ticks alike: slots 0/1 ping-pong the [batch × dim]
   intermediates, the last layer writes straight into the caller's
   destination. Every slot is fully overwritten before it is read back,
   so a warm arena returns the same bits as a cold one (DESIGN §10
   ownership rules). *)
let batch_scratch_key : Canopy_util.Scratch.t Domain.DLS.key =
  Domain.DLS.new_key Canopy_util.Scratch.create

let forward_eval_into ~dst t x =
  let n = Mat.rows x in
  if Mat.cols x <> t.in_dim then
    invalid_arg "Mlp.forward_eval_into: input dim";
  if Mat.rows dst <> n || Mat.cols dst <> t.out_dim then
    invalid_arg "Mlp.forward_eval_into: output shape";
  let nlayers = List.length t.layers in
  if nlayers = 0 then Array.blit (Mat.raw x) 0 (Mat.raw dst) 0 (n * t.in_dim)
  else begin
    let scratch = Domain.DLS.get batch_scratch_key in
    ignore
      (List.fold_left
         (fun (i, dim, acc) layer ->
           let od = Layer.out_dim ~in_dim:dim layer in
           let out =
             if i = nlayers - 1 then dst
             else Mat.scratch_mat scratch ~slot:(i land 1) ~rows:n ~cols:od
           in
           Layer.forward_eval_into ~dst:out layer acc;
           (i + 1, od, out))
         (0, t.in_dim, x) t.layers
        : int * int * Mat.t)
  end

(* The sample is read through a one-row view of the caller's vector,
   which the forward never writes. The result is the fresh [dst]'s
   storage, which the caller owns: callers retain action vectors well
   past the next forward. *)
let forward t x =
  if Vec.dim x <> t.in_dim then invalid_arg "Mlp.forward: input dim";
  let dst = Mat.create_uninit ~rows:1 ~cols:t.out_dim in
  forward_eval_into ~dst t (Mat.row_view x);
  Mat.raw dst

type tape = Layer.cache list (* in layer order *)

(* Unlike {!forward_batch}, the training pass leaves caches behind:
   activation layers cache their own output matrix, so the next layer
   may only overwrite its input when the previous layer does not hold
   on to it (dense caches its input, batch-norm a fresh xhat). The
   first layer's input is the caller's and is never reused. *)
let train_reuse_ok = function
  | Some (Layer.Dense _ | Layer.Batch_norm _) -> true
  | Some (Layer.Leaky_relu _ | Layer.Tanh) | None -> false

let forward_train t batch =
  if Mat.cols batch <> t.in_dim then
    invalid_arg "Mlp.forward_train: input dim";
  (* Train mode advances batch-norm running statistics. *)
  bump_generation t;
  let _, out, rev_caches =
    List.fold_left
      (fun (prev, acc, caches) layer ->
        let out, cache =
          Layer.forward ~reuse_input:(train_reuse_ok prev) layer acc
        in
        (Some layer, out, cache :: caches))
      (None, batch, []) t.layers
  in
  (out, List.rev rev_caches)

let backward ?(input_grad = true) ?(param_grads = true) ?shards t tape dout =
  let layers = Array.of_list t.layers and caches = Array.of_list tape in
  let nl = Array.length layers in
  if Array.length caches <> nl then invalid_arg "Mlp.backward: tape length";
  let shard_layers =
    Option.map
      (Array.map (fun (lo, hi, s) ->
           if List.length s.layers <> nl then
             invalid_arg "Mlp.backward: shard shape";
           (lo, hi, Array.of_list s.layers)))
      shards
  in
  (* The last step of the walk is the first layer of the net: its input
     gradient is the network's, which fits don't consume. Intermediate
     gradients are owned by the walk — each is consumed exactly once —
     so every step but the first may overwrite its [dout] in place; the
     first gets the caller's matrix, which must stay intact. *)
  let grad = ref dout in
  for p = nl - 1 downto 0 do
    let shards =
      Option.map (Array.map (fun (lo, hi, ls) -> (lo, hi, ls.(p)))) shard_layers
    in
    grad :=
      Layer.backward ~input_grad:(p > 0 || input_grad) ~param_grads
        ~reuse_dout:(p < nl - 1) ?shards layers.(p) caches.(p) !grad
  done;
  !grad

type rows_tape = Layer.rows_cache list (* in layer order *)

let forward_train_rows t batch =
  Array.iter
    (fun x ->
      if Vec.dim x <> t.in_dim then
        invalid_arg "Mlp.forward_train_rows: input dim")
    batch;
  bump_generation t;
  let out, rev_caches =
    List.fold_left
      (fun (acc, caches) layer ->
        let out, cache = Layer.forward_rows layer acc in
        (out, cache :: caches))
      (batch, []) t.layers
  in
  (out, List.rev rev_caches)

let backward_rows t tape dout =
  let rev_layers = List.rev t.layers in
  let rev_caches = List.rev tape in
  List.fold_left2
    (fun grad layer cache -> Layer.backward_rows layer cache grad)
    dout rev_layers rev_caches

let zero_grad t = List.iter Layer.zero_grad t.layers
let params t = List.concat_map Layer.params t.layers

let param_count t =
  List.fold_left (fun acc (v, _) -> acc + Array.length v) 0 (params t)

let copy t = { t with layers = List.map Layer.copy t.layers }

let has_batch_norm t =
  List.exists
    (function Layer.Batch_norm _ -> true | _ -> false)
    t.layers

let grad_shadow t =
  if has_batch_norm t then
    invalid_arg
      "Mlp.grad_shadow: batch-norm nets have batch-coupled training \
       forwards; shards would not reproduce the full-batch pass";
  { t with layers = List.map Layer.grad_shadow t.layers }

(* All mutable state of a layer that a target network must track: the
   learned parameters plus batch-norm running statistics. *)
let state_arrays layer =
  match layer with
  | Layer.Dense d -> [ Mat.raw d.w; d.b ]
  | Layer.Batch_norm bn -> [ bn.gamma; bn.beta; bn.running_mean; bn.running_var ]
  | Layer.Leaky_relu _ | Layer.Tanh -> []

(* A blit, not [soft_update ~tau:1.]: the interpolation form computes
   [(1-tau)·d + tau·s], which propagates a NaN already present in [dst]
   — exactly the situation a divergence rollback must recover from. *)
let assign ~src ~dst =
  if List.length src.layers <> List.length dst.layers then
    invalid_arg "Mlp.assign: shape mismatch";
  bump_generation dst;
  List.iter2
    (fun ls ld ->
      let ss = state_arrays ls and ds = state_arrays ld in
      if List.length ss <> List.length ds then
        invalid_arg "Mlp.assign: layer mismatch";
      List.iter2
        (fun s d ->
          if Array.length s <> Array.length d then
            invalid_arg "Mlp.assign: parameter size mismatch";
          Array.blit s 0 d 0 (Array.length s))
        ss ds)
    src.layers dst.layers

let soft_update ~tau ~src ~dst =
  if List.length src.layers <> List.length dst.layers then
    invalid_arg "Mlp.soft_update: shape mismatch";
  bump_generation dst;
  let keep = 1. -. tau in
  List.iter2
    (fun ls ld ->
      let ss = state_arrays ls and ds = state_arrays ld in
      if List.length ss <> List.length ds then
        invalid_arg "Mlp.soft_update: layer mismatch";
      List.iter2
        (fun s d ->
          if Array.length s <> Array.length d then
            invalid_arg "Mlp.soft_update: parameter size mismatch";
          for i = 0 to Array.length s - 1 do
            Array.unsafe_set d i
              ((keep *. Array.unsafe_get d i) +. (tau *. Array.unsafe_get s i))
          done)
        ss ds)
    src.layers dst.layers
