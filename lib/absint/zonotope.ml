open Canopy_tensor

type t = {
  c : Vec.t;  (** center *)
  gens : Vec.t list;  (** one coefficient vector per noise symbol *)
}

let of_box box =
  let n = Box.dim box in
  let center = Box.center box in
  let dev = Box.dev box in
  let gens = ref [] in
  for i = n - 1 downto 0 do
    if dev.(i) > 0. then begin
      let g = Vec.create n in
      g.(i) <- dev.(i);
      gens := g :: !gens
    end
  done;
  { c = center; gens = !gens }

let of_point v = { c = Vec.copy v; gens = [] }
let dim t = Vec.dim t.c
let generators t = List.length t.gens

let radius t i =
  List.fold_left (fun acc g -> acc +. Float.abs g.(i)) 0. t.gens

let dimension t i =
  let r = radius t i in
  Interval.make (t.c.(i) -. r) (t.c.(i) +. r)

let concretize t =
  Box.of_intervals (Array.init (dim t) (fun i -> dimension t i))

let affine m b t =
  if Mat.cols m <> dim t then invalid_arg "Zonotope.affine: dims";
  let c = Mat.mat_vec m t.c in
  Vec.axpy ~alpha:1. ~x:b ~y:c;
  { c; gens = List.map (fun g -> Mat.mat_vec m g) t.gens }

let diag_affine ~scale ~shift t =
  if Vec.dim scale <> dim t || Vec.dim shift <> dim t then
    invalid_arg "Zonotope.diag_affine: dims";
  {
    c = Vec.init (dim t) (fun i -> (scale.(i) *. t.c.(i)) +. shift.(i));
    gens = List.map (fun g -> Vec.mul scale g) t.gens;
  }

(* Apply a per-dimension sound linear relaxation y = λ_i·x + mid_i ± rad_i.
   Fresh noise symbols carry the rad_i terms; one symbol per dimension
   with rad_i > 0 (errors of distinct dimensions are independent, so they
   must not share a symbol). *)
let relax t per_dim =
  let n = dim t in
  let lambda = Vec.create n and mid = Vec.create n and rad = Vec.create n in
  for i = 0 to n - 1 do
    let l, m, r = per_dim i (dimension t i) in
    lambda.(i) <- l;
    mid.(i) <- m;
    rad.(i) <- r
  done;
  let c = Vec.init n (fun i -> (lambda.(i) *. t.c.(i)) +. mid.(i)) in
  let gens = List.map (fun g -> Vec.mul lambda g) t.gens in
  let fresh = ref [] in
  for i = n - 1 downto 0 do
    if rad.(i) > 0. then begin
      let g = Vec.create n in
      g.(i) <- rad.(i);
      fresh := g :: !fresh
    end
  done;
  { c; gens = gens @ !fresh }

let leaky_relu ~slope t =
  if slope < 0. || slope > 1. then invalid_arg "Zonotope.leaky_relu: slope";
  let f x = if x >= 0. then x else slope *. x in
  relax t (fun _ iv ->
      let l = Interval.lo iv and u = Interval.hi iv in
      if l >= 0. then (1., 0., 0.)
      else if u <= 0. then (slope, 0., 0.)
      else begin
        (* Straddling zero: chord slope; the residual f(x) − λx is
           piecewise linear with extrema at the endpoints (equal by the
           chord construction) and at the kink. *)
        let lambda = (f u -. f l) /. (u -. l) in
        let at_end = f l -. (lambda *. l) in
        let lo = Float.min at_end 0. and hi = Float.max at_end 0. in
        (lambda, 0.5 *. (lo +. hi), 0.5 *. (hi -. lo))
      end)

let tanh t =
  relax t (fun _ iv ->
      let l = Interval.lo iv and u = Interval.hi iv in
      if l = u then (0., Float.tanh l, 0.)
      else begin
        (* DeepZ relaxation for S-shaped activations: slope = minimum
           endpoint derivative, residual bounded by the endpoint values. *)
        let d x =
          let th = Float.tanh x in
          1. -. (th *. th)
        in
        let lambda = Float.min (d l) (d u) in
        let mu1 =
          0.5 *. (Float.tanh u +. Float.tanh l -. (lambda *. (u +. l)))
        in
        let delta =
          0.5 *. (Float.tanh u -. Float.tanh l -. (lambda *. (u -. l)))
        in
        (lambda, mu1, Float.abs delta)
      end)

let propagate net t =
  if dim t <> Canopy_nn.Mlp.in_dim net then
    invalid_arg "Zonotope.propagate: input dim";
  List.fold_left
    (fun acc layer ->
      match layer with
      | Canopy_nn.Layer.Dense d -> affine d.w d.b acc
      | Canopy_nn.Layer.Batch_norm bn ->
          let n = Vec.dim bn.gamma in
          let scale =
            Vec.init n (fun i ->
                bn.gamma.(i) /. sqrt (bn.running_var.(i) +. bn.eps))
          in
          let shift =
            Vec.init n (fun i ->
                bn.beta.(i) -. (scale.(i) *. bn.running_mean.(i)))
          in
          diag_affine ~scale ~shift acc
      | Canopy_nn.Layer.Leaky_relu slope -> leaky_relu ~slope acc
      | Canopy_nn.Layer.Tanh -> tanh acc)
    t (Canopy_nn.Mlp.layers net)

(* Reduced product with the box domain: both are sound, so their
   intersection is sound and never looser than either. The box's
   per-dimension monotone transformers can beat the zonotope's linear
   relaxations on saturated activations, and vice versa on affine
   cancellation. *)
let meet_ibp zono ibp =
  match Interval.intersect zono ibp with
  | Some tight -> tight
  | None ->
      (* Both are sound over-approximations of a non-empty set, so they
         must overlap; guard against FP rounding at the boundary. *)
      Interval.hull zono ibp

let output_interval net box =
  if Canopy_nn.Mlp.out_dim net <> 1 then
    invalid_arg "Zonotope.output_interval: out_dim";
  let zono = dimension (propagate net (of_box box)) 0 in
  meet_ibp zono (Ibp.output_interval net box)

(* The IR-based path: one fused affine (exact on zonotopes) per stage
   instead of a dense/batch-norm pair, sharing the extraction — and the
   folded batch-norm arithmetic — with the box engine. Same abstraction
   as [propagate]: affine maps are exact on zonotopes, so fusing them
   changes results only by rounding. *)
let propagate_anet ir t =
  if dim t <> Anet.in_dim ir then
    invalid_arg "Zonotope.propagate_anet: input dim";
  List.fold_left
    (fun acc (stage : Anet.stage) ->
      let acc = affine stage.w stage.b acc in
      match stage.act with
      | Anet.Linear -> acc
      | Anet.Leaky_relu slope -> leaky_relu ~slope acc
      | Anet.Tanh -> tanh acc)
    t (Anet.stages ir)

let output_intervals_anet ir boxes =
  if Anet.out_dim ir <> 1 then
    invalid_arg "Zonotope.output_intervals_anet: out_dim";
  (* The zonotope transfer is inherently per-box (each box spawns its own
     noise symbols), but the reduced-product partner is the batched
     center–radius pass, evaluated for the whole workload in one shot. *)
  let ibp = Anet.output_intervals ir boxes in
  let n = Array.length boxes in
  let eval k =
    let zono = dimension (propagate_anet ir (of_box boxes.(k))) 0 in
    meet_ibp zono ibp.(k)
  in
  (* Boxes are independent, so any partition is bit-identical to the
     sequential sweep. Per-box cost scales the IR's own estimate by the
     noise-symbol budget (≈ in_dim generators survive each stage), which
     is a pure function of the IR shape — chunking stays deterministic. *)
  let row_flops = Anet.per_box_flops ir * (Anet.in_dim ir + 1) in
  match Canopy_tensor.Mat.plan_chunks ~rows:n ~row_flops with
  | Some chunk ->
      let out = Array.make n ibp.(0) in
      Canopy_util.Pool.parallel_for_chunks ~chunk n (fun ~lo ~hi ->
          for k = lo to hi - 1 do
            out.(k) <- eval k
          done);
      out
  | None -> Array.init n eval
