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

(* The builder's pending affine run [x ↦ pw·x + pb]. A dense layer that
   opens a run is borrowed (its arrays are the network's, [slot] −1);
   every composition writes its matrix into one of two slots of this
   domain's builder arena, the other one than its operand's, and its
   bias into a fresh vector. A flush copies the run out into a stage, so
   no stage aliases the network or the arena. *)
type pending = { pw : Mat.t; pb : Vec.t; slot : int }

let build_key : Canopy_util.Scratch.t Domain.DLS.key =
  Domain.DLS.new_key Canopy_util.Scratch.create

let next_slot = function Some { slot = 0; _ } -> 1 | _ -> 0

(* The square matrix with [d] on its diagonal, in arena slot [slot]. *)
let diagonal arena ~slot d =
  let n = Vec.dim d in
  let w = Mat.scratch_mat arena ~slot ~rows:n ~cols:n in
  let wd = Mat.raw w in
  Array.fill wd 0 (n * n) 0.;
  for i = 0 to n - 1 do
    wd.((i * n) + i) <- d.(i)
  done;
  w

let compose_dense arena pending (d : Layer.dense) =
  match pending with
  | None -> { pw = d.w; pb = d.b; slot = -1 }
  | Some p ->
      (* (W·x + b) ∘ (W0·x + b0) = (W·W0)·x + (W·b0 + b) *)
      let slot = next_slot pending in
      let w =
        Mat.scratch_mat arena ~slot ~rows:(Mat.rows d.w) ~cols:(Mat.cols p.pw)
      in
      Mat.mat_mul_into ~dst:w d.w p.pw;
      let b = Mat.mat_vec d.w p.pb in
      Vec.axpy ~alpha:1. ~x:d.b ~y:b;
      { pw = w; pb = b; slot }

(* Inference-mode batch norm is x_i ↦ scale_i·x_i + shift_i with
   scale_i = γ_i/√(σ²_i + ε), shift_i = β_i − scale_i·μ_i — the same
   folding as [Ibp.propagate_layer] and [Layer.forward_eval]. Composing it
   onto a pending affine row-scales W and rewrites b per channel. *)
let compose_batch_norm arena pending ~dim (bn : Layer.batch_norm) =
  let scale =
    Vec.init dim (fun i -> bn.gamma.(i) /. sqrt (bn.running_var.(i) +. bn.eps))
  in
  let shift =
    Vec.init dim (fun i -> bn.beta.(i) -. (scale.(i) *. bn.running_mean.(i)))
  in
  let slot = next_slot pending in
  match pending with
  | None -> { pw = diagonal arena ~slot scale; pb = shift; slot }
  | Some p ->
      let cols = Mat.cols p.pw in
      let w = Mat.scratch_mat arena ~slot ~rows:dim ~cols in
      let wd = Mat.raw w and pd = Mat.raw p.pw in
      for i = 0 to dim - 1 do
        for j = 0 to cols - 1 do
          wd.((i * cols) + j) <- scale.(i) *. pd.((i * cols) + j)
        done
      done;
      let b = Vec.init dim (fun i -> (scale.(i) *. p.pb.(i)) +. shift.(i)) in
      { pw = w; pb = b; slot }

let identity_affine arena dim =
  { pw = diagonal arena ~slot:0 (Vec.init dim (fun _ -> 1.));
    pb = Vec.create dim;
    slot = 0 }

(* Fold the layers into stages, handing each flushed run to [emit] in
   stage order. *)
let fold_stages net ~emit =
  let arena = Domain.DLS.get build_key in
  let pending = ref None in
  let dim = ref (Mlp.in_dim net) in
  let k = ref 0 in
  let flush act =
    let p =
      match !pending with Some p -> p | None -> identity_affine arena !dim
    in
    pending := None;
    emit !k act p;
    incr k
  in
  List.iter
    (fun layer ->
      match layer with
      | Layer.Dense d ->
          pending := Some (compose_dense arena !pending d);
          dim := Mat.rows d.w
      | Layer.Batch_norm bn ->
          pending := Some (compose_batch_norm arena !pending ~dim:!dim bn)
      | Layer.Leaky_relu slope -> flush (Leaky_relu slope)
      | Layer.Tanh -> flush Tanh)
    (Mlp.layers net);
  (* A trailing affine run (e.g. a critic's linear head) becomes a
     stage with no activation; nets ending in an activation need no
     extra stage. *)
  match !pending with Some _ -> flush Linear | None -> ()

let of_mlp net =
  let source_generation = Mlp.generation net in
  let rev_stages = ref [] in
  fold_stages net ~emit:(fun _ act p ->
      let w = Mat.copy p.pw in
      let stage = { w; b = Vec.copy p.pb; abs_w = Mat.abs w; act } in
      rev_stages := stage :: !rev_stages);
  {
    in_dim = Mlp.in_dim net;
    out_dim = Mlp.out_dim net;
    stages = List.rev !rev_stages;
    source_generation;
  }

(* Re-extract [net] into the arrays of [ir], an earlier extraction of the
   same network (so every stage keeps its shape), and return them as the
   IR of the current generation. *)
let refresh ir net =
  let stages = Array.of_list ir.stages in
  fold_stages net ~emit:(fun k _ p ->
      let s = stages.(k) in
      let w = Mat.raw s.w in
      Array.blit (Mat.raw p.pw) 0 w 0 (Array.length w);
      Array.blit p.pb 0 s.b 0 (Vec.dim s.b);
      let a = Mat.raw s.abs_w in
      for i = 0 to Array.length w - 1 do
        a.(i) <- Float.abs w.(i)
      done);
  { ir with source_generation = Mlp.generation net }

(* ------------------------------------------------------------------ *)
(* Cache keyed on the network's physical identity and its parameter    *)
(* generation: rollout steps between gradient updates re-certify the   *)
(* same frozen actor, so extraction amortizes to once per update.      *)
(* ------------------------------------------------------------------ *)

(* One cache slot per domain: pool workers certifying in parallel each
   memoize their own extraction instead of racing on a shared ref (the
   extraction is pure, so per-domain copies are merely a few redundant
   [of_mlp] runs, never a correctness hazard). The slot keeps the
   current IR and the one before it; a new generation of the same
   network is extracted into the older one's arrays, so a training run
   that changes its actor every update allocates no new IR. *)
let cache_key : (Mlp.t * t * t option) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let cached net =
  let cache = Domain.DLS.get cache_key in
  match !cache with
  | Some (src, ir, _)
    when src == net && ir.source_generation = Mlp.generation net ->
      ir
  | Some (src, ir, older) when src == net ->
      let ir' =
        match older with Some old -> refresh old net | None -> of_mlp net
      in
      cache := Some (net, ir', Some ir);
      ir'
  | _ ->
      let ir = of_mlp net in
      cache := Some (net, ir, None);
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
   boxed float per endpoint. Leaky ReLU is [Elementwise.interval_leaky]
   (an AVX2 kernel where the GEMMs have one, the same bits); each arm
   restates [act_fn]'s formula. *)
let apply_act_batch act c r =
  let cd = Mat.raw c and rd = Mat.raw r in
  let n = Array.length cd in
  match act with
  | Linear -> ()
  | Leaky_relu slope -> Elementwise.interval_leaky ~slope ~center:cd ~radius:rd
  | Tanh ->
      for i = 0 to n - 1 do
        let ci = Array.unsafe_get cd i and ri = Array.unsafe_get rd i in
        let lo = Float.tanh (ci -. ri) and hi = Float.tanh (ci +. ri) in
        Array.unsafe_set cd i (0.5 *. (hi +. lo));
        Array.unsafe_set rd i (0.5 *. (hi -. lo))
      done

(* Per-domain scratch arena of the batched transfer. Ownership per
   DESIGN §10: the arena is DLS-owned, so only this domain writes these
   buffers. Slot 0 holds the live-column gather of |W| for a radius GEMM
   and slot 1 that of its radii; slots 2 and 3 the first stage's inputs
   (the center rows and the radius block over the set's varying
   columns); slots (4 + 2s, 5 + 2s) stage [s]'s output centers and
   radii. Every slot is reused across calls (and across the full-size/
   tail chunk shapes of a pool region, via the arena's per-length
   caching) and every cell is overwritten before it is read, so a warm
   arena returns the same bits as a cold one. *)
let scratch_key : Canopy_util.Scratch.t Domain.DLS.key =
  Domain.DLS.new_key Canopy_util.Scratch.create

let stage_slot s = 4 + (2 * s)

(* Per-domain buffer of the live columns of the stage being propagated,
   DLS-owned like the arena. *)
let live_key : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let live_buffer n =
  let b = Domain.DLS.get live_key in
  if Array.length !b < n then b := Array.make n 0;
  !b

(* Column [j] of a row-major [rows × cols] buffer holds a nonzero in some
   row. Live columns usually answer on row 0; only dead ones are scanned
   to the end. *)
let live_column d ~rows ~cols j =
  let i = ref 0 in
  while !i < rows && Array.unsafe_get d ((!i * cols) + j) = 0. do
    incr i
  done;
  !i < rows

(* The live columns of [r], ascending, into [live]; returns their count. *)
let scan_live r live =
  let rows = Mat.rows r and cols = Mat.cols r and rd = Mat.raw r in
  let n = ref 0 in
  for j = 0 to cols - 1 do
    if live_column rd ~rows ~cols j then begin
      Array.unsafe_set live !n j;
      incr n
    end
  done;
  !n

(* The radius GEMM r' = r·|W|ᵀ over an ascending set of input columns,
   the first [n_live] of [live], whose radii [r] holds as its columns. A
   column left out is dead: its radius is ±0 in every row (a
   certificate's point dimensions). Each of its terms is then r·|w| =
   ±0, since |W| is finite, and adding ±0 to an accumulator chain that
   starts at +0 changes nothing: such a chain never reaches −0, and
   x + ±0 = x otherwise. The GEMM sums every cell in ascending column
   order, so summing any ascending set of columns that holds the live
   ones returns the full GEMM's bits. *)
let radius_gemm scratch ~dst r abs_w ~live ~n_live =
  let cols = Mat.cols abs_w in
  if n_live = cols then Mat.mat_mul_nt_into ~dst r abs_w
  else if n_live = 0 then Mat.fill dst 0.
  else begin
    let out = Mat.rows abs_w in
    let w' = Mat.scratch_mat scratch ~slot:0 ~rows:out ~cols:n_live in
    let wd = Mat.raw abs_w and wd' = Mat.raw w' in
    for o = 0 to out - 1 do
      for l = 0 to n_live - 1 do
        Array.unsafe_set wd' ((o * n_live) + l)
          (Array.unsafe_get wd ((o * cols) + Array.unsafe_get live l))
      done
    done;
    Mat.mat_mul_nt_into ~dst r w'
  end

(* A later stage's radius GEMM: the live columns of its input [r], one
   scan, then their gather. *)
let hidden_radius_gemm scratch ~dst r abs_w =
  let rows = Mat.rows r and cols = Mat.cols r in
  let live = live_buffer cols in
  let n_live = scan_live r live in
  if n_live = cols || n_live = 0 then
    radius_gemm scratch ~dst r abs_w ~live ~n_live
  else begin
    let r' = Mat.scratch_mat scratch ~slot:1 ~rows ~cols:n_live in
    let rd = Mat.raw r and rd' = Mat.raw r' in
    for i = 0 to rows - 1 do
      for l = 0 to n_live - 1 do
        Array.unsafe_set rd' ((i * n_live) + l)
          (Array.unsafe_get rd ((i * cols) + Array.unsafe_get live l))
      done
    done;
    radius_gemm scratch ~dst r' abs_w ~live ~n_live
  end

(* Boxes [lo, hi) of a set as the first stage's inputs: the center rows
   its center GEMM reads (the point, with each varying column's center
   in place) and the radius block over the varying columns alone, which
   is its radius GEMM's input (one unread column when none varies). The
   columns left out have radius +0, so the varying ones are an ascending
   superset of the live ones. *)
let input_rows scratch (set : Box.set) ~lo ~hi =
  let rows = hi - lo and dim = Vec.dim set.point in
  let n = Array.length set.vary in
  let c = Mat.scratch_mat scratch ~slot:2 ~rows ~cols:dim in
  let cd = Mat.raw c in
  for k = 0 to rows - 1 do
    let base = k * dim and src = (lo + k) * n in
    Array.blit set.point 0 cd base dim;
    for m = 0 to n - 1 do
      Array.unsafe_set cd
        (base + Array.unsafe_get set.vary m)
        (Array.unsafe_get set.centers (src + m))
    done
  done;
  let r = Mat.scratch_mat scratch ~slot:3 ~rows ~cols:(Int.max n 1) in
  Array.blit set.radii (lo * n) (Mat.raw r) 0 (rows * n);
  (c, r)

(* Boxes [lo, hi) of a set through every fused stage: two GEMMs per
   stage — c' = c·Wᵀ + b and r' = r·|W|ᵀ — then the elementwise
   activation. |W| is precomputed at extraction, so no per-slice
   [Mat.abs] allocation survives in the hot path. Soundness of the
   radius GEMM: each output radius is a non-negatively weighted sum of
   input radii, so it is the exact image of the interval under the
   affine map up to the same rounding as the per-slice [Box.affine]
   reference (see DESIGN.md §8). The first stage's radius GEMM runs over
   the set's varying columns and every later one scans its own input.

   Each output row depends only on the matching input row, so a range
   reproduces the whole set's rows bit for bit. The result aliases this
   domain's scratch slots: callers must consume (copy out of) it before
   its next call. *)
let propagate_set t (set : Box.set) ~lo ~hi =
  let scratch = Domain.DLS.get scratch_key in
  let c, r = input_rows scratch set ~lo ~hi in
  let n = Array.length set.vary in
  let rec go s c r = function
    | [] -> (c, r)
    | stage :: rest ->
        let rows = Mat.rows c and cols = Mat.rows stage.w in
        let c' = Mat.scratch_mat scratch ~slot:(stage_slot s) ~rows ~cols in
        let r' =
          Mat.scratch_mat scratch ~slot:(stage_slot s + 1) ~rows ~cols
        in
        Mat.mat_mul_nt_bias_into ~dst:c' c stage.w stage.b;
        if s = 0 then
          radius_gemm scratch ~dst:r' r stage.abs_w ~live:set.vary ~n_live:n
        else hidden_radius_gemm scratch ~dst:r' r stage.abs_w;
        apply_act_batch stage.act c' r';
        go (s + 1) c' r' rest
  in
  match t.stages with
  | [] ->
      (* A network without layers maps each box to itself: its radius
         rows, in slot 1 since no radius GEMM runs. *)
      let rows = hi - lo and dim = t.in_dim in
      let r' = Mat.scratch_mat scratch ~slot:1 ~rows ~cols:dim in
      let rd = Mat.raw r and rd' = Mat.raw r' in
      Mat.fill r' 0.;
      for k = 0 to rows - 1 do
        for m = 0 to n - 1 do
          rd'.((k * dim) + set.vary.(m)) <- rd.((k * n) + m)
        done
      done;
      (c, r')
  | stages -> go 0 c r stages

let check_box t box =
  if Box.dim box <> t.in_dim then invalid_arg "Anet.propagate: input dim"

let propagate t box =
  check_box t box;
  let c, r = propagate_set t (Box.set_of_boxes [| box |]) ~lo:0 ~hi:1 in
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

(* Boxes [lo, hi) of the set through the batched transfer, results into
   [out]. A chunk builds its own input rows in its domain's arena, and a
   sub-range reproduces the whole set's rows bit for bit, so chunking
   the workload cannot change any interval (DESIGN §10). *)
let output_intervals_range t set out ~lo ~hi =
  let c, r = propagate_set t set ~lo ~hi in
  let cd = Mat.raw c and rd = Mat.raw r in
  for k = lo to hi - 1 do
    let ck = cd.(k - lo) and rk = rd.(k - lo) in
    out.(k) <- Interval.make (ck -. rk) (ck +. rk)
  done

(* Each chunk packs every stage's weights for its own GEMMs, so a chunk
   is kept a dozen boxes tall to spread that packing: at hidden 256 the
   grain alone would cut a certificate into 4-box chunks at two domains,
   and each would pack the 256×256 weights for itself. *)
let min_chunk_rows = 12

let output_intervals_rows t (set : Box.set) =
  let what = "Anet.output_intervals_rows" in
  if t.out_dim <> 1 then invalid_arg (what ^ ": out_dim");
  Box.check_set ~what ~dim:t.in_dim set;
  let n = set.rows in
  let out = Array.make n (Interval.make 0. 0.) in
  (* A chunk is at least [min_chunk_rows] boxes tall; a workload that
     one such chunk covers runs sequentially. Both rules read only shapes
     and the grain, like [plan_chunks]. *)
  let chunk =
    Option.map (Int.max min_chunk_rows)
      (Mat.plan_chunks ~rows:n ~row_flops:(per_box_flops t))
  in
  (match chunk with
  | Some chunk when n > chunk ->
      Canopy_util.Pool.parallel_for_chunks ~chunk n
        (output_intervals_range t set out)
  | Some _ | None -> output_intervals_range t set out ~lo:0 ~hi:n);
  out

let output_intervals t boxes =
  if t.out_dim <> 1 then invalid_arg "Anet.output_intervals: out_dim";
  Array.iter (check_box t) boxes;
  if Array.length boxes = 0 then [||]
  else output_intervals_rows t (Box.set_of_boxes boxes)

let output_interval t box = (output_intervals t [| box |]).(0)
