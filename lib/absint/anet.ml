open Canopy_tensor
open Canopy_nn

type act = Linear | Leaky_relu of float | Tanh

type stage = {
  w : Mat.t;
  b : Vec.t;
  abs_w : Mat.t;
  act : act;
}

type t = {
  in_dim : int;
  out_dim : int;
  stages : stage list;
  source_generation : int;
}

let in_dim t = t.in_dim
let out_dim t = t.out_dim
let stages t = t.stages
let source_generation t = t.source_generation

(* ------------------------------------------------------------------ *)
(* Extraction: fold every run of affine layers (dense, inference-mode  *)
(* batch norm) into a single fused stage, flushed at each activation.  *)
(* ------------------------------------------------------------------ *)

(* The pending affine (w, b) is owned by the builder: compositions may
   mutate it freely, but a dense layer adopted with no pending prefix
   must be copied — the layer's arrays are mutable and live on in the
   network. *)
let adopt_dense pending (d : Layer.dense) =
  match pending with
  | None -> (Mat.copy d.w, Vec.copy d.b)
  | Some (w0, b0) ->
      (* (W·x + b) ∘ (W0·x + b0) = (W·W0)·x + (W·b0 + b) *)
      let w = Mat.mat_mul d.w w0 in
      let b = Mat.mat_vec d.w b0 in
      Vec.axpy ~alpha:1. ~x:d.b ~y:b;
      (w, b)

(* Inference-mode batch norm is x_i ↦ scale_i·x_i + shift_i with
   scale_i = γ_i/√(σ²_i + ε), shift_i = β_i − scale_i·μ_i — the same
   folding as [Ibp.propagate_layer] and [Layer.forward_eval]. Composing it
   onto a pending affine row-scales W and rewrites b per channel. *)
let adopt_batch_norm pending ~dim (bn : Layer.batch_norm) =
  let scale =
    Vec.init dim (fun i -> bn.gamma.(i) /. sqrt (bn.running_var.(i) +. bn.eps))
  in
  let shift =
    Vec.init dim (fun i -> bn.beta.(i) -. (scale.(i) *. bn.running_mean.(i)))
  in
  match pending with
  | None ->
      let w =
        Mat.init ~rows:dim ~cols:dim (fun i j ->
            if i = j then scale.(i) else 0.)
      in
      (w, Vec.copy shift)
  | Some (w0, b0) ->
      let w =
        Mat.init ~rows:dim ~cols:(Mat.cols w0) (fun i j ->
            scale.(i) *. Mat.get w0 i j)
      in
      let b = Vec.init dim (fun i -> (scale.(i) *. b0.(i)) +. shift.(i)) in
      (w, b)

let identity_affine dim =
  ( Mat.init ~rows:dim ~cols:dim (fun i j -> if i = j then 1. else 0.),
    Vec.create dim )

let stage_of ~act (w, b) = { w; b; abs_w = Mat.abs w; act }

let of_mlp net =
  let source_generation = Mlp.generation net in
  let pending = ref None in
  let dim = ref (Mlp.in_dim net) in
  let rev_stages = ref [] in
  let flush act =
    let affine =
      match !pending with Some wb -> wb | None -> identity_affine !dim
    in
    pending := None;
    rev_stages := stage_of ~act affine :: !rev_stages
  in
  List.iter
    (fun layer ->
      match layer with
      | Layer.Dense d ->
          pending := Some (adopt_dense !pending d);
          dim := Mat.rows d.w
      | Layer.Batch_norm bn ->
          pending := Some (adopt_batch_norm !pending ~dim:!dim bn)
      | Layer.Leaky_relu slope -> flush (Leaky_relu slope)
      | Layer.Tanh -> flush Tanh)
    (Mlp.layers net);
  (* A trailing affine run (e.g. a critic's linear head) becomes a
     stage with no activation; nets ending in an activation need no
     extra stage. *)
  (match !pending with Some _ -> flush Linear | None -> ());
  {
    in_dim = Mlp.in_dim net;
    out_dim = Mlp.out_dim net;
    stages = List.rev !rev_stages;
    source_generation;
  }

(* ------------------------------------------------------------------ *)
(* Cache keyed on the network's physical identity and its parameter    *)
(* generation: rollout steps between gradient updates re-certify the   *)
(* same frozen actor, so extraction amortizes to once per update.      *)
(* ------------------------------------------------------------------ *)

(* One cache slot per domain: pool workers certifying in parallel each
   memoize their own extraction instead of racing on a shared ref (the
   extraction is pure, so per-domain copies are merely a few redundant
   [of_mlp] runs, never a correctness hazard). *)
let cache_key : (Mlp.t * t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cached net =
  let cache = Domain.DLS.get cache_key in
  match !cache with
  | Some (src, ir) when src == net && ir.source_generation = Mlp.generation net
    ->
      ir
  | _ ->
      let ir = of_mlp net in
      cache := Some (net, ir);
      ir

(* ------------------------------------------------------------------ *)
(* Concrete and abstract evaluation over the fused stages.             *)
(* ------------------------------------------------------------------ *)

let act_fn = function
  | Linear -> fun x -> x
  | Leaky_relu slope -> fun x -> if x >= 0. then x else slope *. x
  | Tanh -> Float.tanh

let forward t x =
  if Vec.dim x <> t.in_dim then invalid_arg "Anet.forward: input dim";
  List.fold_left
    (fun acc stage ->
      let y = Mat.mat_vec stage.w acc in
      Vec.axpy ~alpha:1. ~x:stage.b ~y;
      match stage.act with
      | Linear -> y
      | act ->
          Vec.map_into ~dst:y (act_fn act) y;
          y)
    x t.stages

(* Monotone activation over center–radius pairs, in place: the endpoint
   formula lo = f(c−r), hi = f(c+r), c' = (hi+lo)/2, r' = (hi−lo)/2 —
   the same arithmetic as [Box.map_monotone], applied to every cell of
   the [K × dim] batch at once. The activation is matched once, outside
   the loop, so each cell runs inline float code: no closure call and no
   boxed float per endpoint. Each branch restates [act_fn]'s formula. *)
let apply_act_batch act c r =
  let cd = Mat.raw c and rd = Mat.raw r in
  let n = Array.length cd in
  match act with
  | Linear -> ()
  | Leaky_relu slope ->
      for i = 0 to n - 1 do
        let ci = Array.unsafe_get cd i and ri = Array.unsafe_get rd i in
        let l = ci -. ri and h = ci +. ri in
        let lo = if l >= 0. then l else slope *. l
        and hi = if h >= 0. then h else slope *. h in
        Array.unsafe_set cd i (0.5 *. (hi +. lo));
        Array.unsafe_set rd i (0.5 *. (hi -. lo))
      done
  | Tanh ->
      for i = 0 to n - 1 do
        let ci = Array.unsafe_get cd i and ri = Array.unsafe_get rd i in
        let lo = Float.tanh (ci -. ri) and hi = Float.tanh (ci +. ri) in
        Array.unsafe_set cd i (0.5 *. (hi +. lo));
        Array.unsafe_set rd i (0.5 *. (hi -. lo))
      done

(* Per-domain scratch arena of the batched transfer. Ownership per
   DESIGN §10: the arena is DLS-owned, so only this domain writes these
   buffers. Slots 0 and 1 hold the live-column gathers of a radius GEMM
   ([r] and [|W|]); slots (2 + 2s, 3 + 2s) hold stage [s]'s output centers
   and radii. Every slot is reused across calls (and across the
   full-size/tail chunk shapes of a pool region, via the arena's
   per-length caching) and every cell is overwritten before it is read,
   so a warm arena returns the same bits as a cold one. *)
let scratch_key : Canopy_util.Scratch.t Domain.DLS.key =
  Domain.DLS.new_key Canopy_util.Scratch.create

let stage_slot s = 2 + (2 * s)

(* Column [j] of a row-major [rows × cols] buffer holds a nonzero in some
   row. Live columns usually answer on row 0; only dead ones are scanned
   to the end. *)
let live_column d ~rows ~cols j =
  let i = ref 0 in
  while !i < rows && Array.unsafe_get d ((!i * cols) + j) = 0. do
    incr i
  done;
  !i < rows

(* The radius GEMM r' = r·|W|ᵀ over the live input columns only. A column
   is dead when its radius is ±0 in every row (a certificate's point
   dimensions). Each of its terms is then r·|w| = ±0, since |W| is finite,
   and adding ±0 to an accumulator chain that starts at +0 changes
   nothing: such a chain never reaches −0, and x + ±0 = x otherwise. The
   GEMM sums every cell in ascending column order, so summing the live
   columns alone, in the same order, returns the full GEMM's bits. *)
let radius_gemm scratch ~dst r abs_w =
  let rows = Mat.rows r and cols = Mat.cols r in
  let rd = Mat.raw r in
  let live = ref 0 in
  for j = 0 to cols - 1 do
    if live_column rd ~rows ~cols j then incr live
  done;
  let live = !live in
  if live = cols then Mat.mat_mul_nt_into ~dst r abs_w
  else if live = 0 then Mat.fill dst 0.
  else begin
    let out = Mat.rows abs_w in
    let r' = Mat.scratch_mat scratch ~slot:0 ~rows ~cols:live in
    let w' = Mat.scratch_mat scratch ~slot:1 ~rows:out ~cols:live in
    let rd' = Mat.raw r' and wd = Mat.raw abs_w and wd' = Mat.raw w' in
    let l = ref 0 in
    for j = 0 to cols - 1 do
      if live_column rd ~rows ~cols j then begin
        for i = 0 to rows - 1 do
          Array.unsafe_set rd' ((i * live) + !l)
            (Array.unsafe_get rd ((i * cols) + j))
        done;
        for o = 0 to out - 1 do
          Array.unsafe_set wd' ((o * live) + !l)
            (Array.unsafe_get wd ((o * cols) + j))
        done;
        incr l
      end
    done;
    Mat.mat_mul_nt_into ~dst r' w'
  end

(* One fused stage over the whole batch: two GEMMs — c' = c·Wᵀ + b and
   r' = r·|W|ᵀ — then the elementwise activation. |W| is precomputed at
   extraction, so no per-slice [Mat.abs] allocation survives in the hot
   path. Soundness of the radius GEMM: each output radius is a
   non-negatively weighted sum of input radii, so it is the exact image
   of the interval under the affine map up to the same rounding as the
   per-slice [Box.affine] reference (see DESIGN.md §8).

   The result aliases the last stage's scratch slots: callers must
   consume (copy out of) it before this domain's next call. *)
let propagate_batch t ~centers ~radii =
  let scratch = Domain.DLS.get scratch_key in
  let _, result =
    List.fold_left
      (fun (s, (c, r)) stage ->
        let rows = Mat.rows c and cols = Mat.rows stage.w in
        let c' = Mat.scratch_mat scratch ~slot:(stage_slot s) ~rows ~cols in
        let r' =
          Mat.scratch_mat scratch ~slot:(stage_slot s + 1) ~rows ~cols
        in
        Mat.mat_mul_nt_bias_into ~dst:c' c stage.w stage.b;
        radius_gemm scratch ~dst:r' r stage.abs_w;
        apply_act_batch stage.act c' r';
        (s + 1, (c', r')))
      (0, (centers, radii))
      t.stages
  in
  result

let check_box t box =
  if Box.dim box <> t.in_dim then invalid_arg "Anet.propagate: input dim"

let batch_of_boxes boxes =
  ( Mat.of_rows (Array.map Box.center boxes),
    Mat.of_rows (Array.map Box.dev boxes) )

let propagate t box =
  check_box t box;
  let centers, radii = batch_of_boxes [| box |] in
  let c, r = propagate_batch t ~centers ~radii in
  Box.make ~center:(Mat.row c 0) ~dev:(Mat.row r 0)

(* Per-box cost of the batched transfer, for the parallel-dispatch
   threshold: one GEMM row per stage, costed by the kernel's own
   estimate (the radius GEMM rides along). Pure function of the IR
   shape, so chunking derived from it is deterministic. Exported: this
   is the one cost model for IR sweeps — [Zonotope] derives its per-box
   estimate from it rather than restating the formula. *)
let per_box_flops t =
  List.fold_left
    (fun acc stage ->
      (* [abs_w] has the stage's input width as its column count — the
         same shape the batch matrix would have. *)
      acc + Mat.mat_mul_nt_row_flops stage.abs_w stage.w)
    0 t.stages

(* Rows [lo, hi) of the workload through the batched transfer, results
   into [out]. Each output row of the stage GEMMs depends only on the
   matching input row, and the live-column gather is bit-neutral per row,
   so a sub-batch reproduces the full batch's rows bit for bit — chunking
   the workload cannot change any interval (DESIGN §10). A chunk copies
   its rows out; the whole workload runs in place. *)
let output_intervals_range t ~centers ~radii out ~lo ~hi =
  let centers, radii =
    if lo = 0 && hi = Mat.rows centers then (centers, radii)
    else (Mat.sub_rows centers ~lo ~hi, Mat.sub_rows radii ~lo ~hi)
  in
  let c, r = propagate_batch t ~centers ~radii in
  let cd = Mat.raw c and rd = Mat.raw r in
  for k = lo to hi - 1 do
    let ck = cd.(k - lo) and rk = rd.(k - lo) in
    out.(k) <- Interval.make (ck -. rk) (ck +. rk)
  done

let output_intervals_rows t ~centers ~radii =
  if t.out_dim <> 1 then invalid_arg "Anet.output_intervals_rows: out_dim";
  let n = Mat.rows centers in
  if
    Mat.rows radii <> n
    || Mat.cols centers <> t.in_dim
    || Mat.cols radii <> t.in_dim
  then invalid_arg "Anet.output_intervals_rows: shape";
  let rd = Mat.raw radii in
  for i = 0 to Array.length rd - 1 do
    let d = rd.(i) in
    if d < 0. || Float.is_nan d then
      invalid_arg "Anet.output_intervals_rows: deviation"
  done;
  let out = Array.make n (Interval.make 0. 0.) in
  (* A chunk is at least [Mat.nt_c_rows] boxes tall, so its stage GEMMs
     run the C kernel rather than the OCaml one; a workload that one such
     chunk covers runs sequentially. Both rules read only shapes and the
     grain, like [plan_chunks]. *)
  let chunk =
    Option.map (Int.max Mat.nt_c_rows)
      (Mat.plan_chunks ~rows:n ~row_flops:(per_box_flops t))
  in
  (match chunk with
  | Some chunk when n > chunk ->
      Canopy_util.Pool.parallel_for_chunks ~chunk n
        (output_intervals_range t ~centers ~radii out)
  | Some _ | None -> output_intervals_range t ~centers ~radii out ~lo:0 ~hi:n);
  out

let output_intervals t boxes =
  if t.out_dim <> 1 then invalid_arg "Anet.output_intervals: out_dim";
  Array.iter (check_box t) boxes;
  if Array.length boxes = 0 then [||]
  else
    let centers, radii = batch_of_boxes boxes in
    output_intervals_rows t ~centers ~radii

let output_interval t box = (output_intervals t [| box |]).(0)
