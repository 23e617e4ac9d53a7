(* Differential soundness audit of the abstract transformers.

   For every primitive transformer F over domain D and its concrete
   counterpart f, soundness demands f(x) ∈ γ(F(X)) for all x ∈ γ(X). We
   cannot prove that here, but we can sanitize it: sample concrete points
   inside random abstract inputs, push the point through f and the
   abstract element through F, and report any escape. A single violation
   means the verifier's certificates cannot be trusted.

   Scalar interval transformers and the distilled tree's bound are
   checked with *exact* containment: IEEE-754 rounding is monotone, so a
   sound implementation passes bit-for-bit and any escape is a real bug.
   Matrix and network passes accumulate sums in an order that may differ
   between the concrete and abstract paths, so those use a 1e-9 relative
   tolerance to avoid crying wolf on reassociation noise. *)

open Canopy_tensor
open Canopy_absint
module Prng = Canopy_util.Prng

type violation = { op : string; trial : int; seed : int; detail : string }

type result = {
  samples : int;
  per_op : (string * int) list;
  violation_count : int;
  violations : violation list;  (** reported subset, capped at [max_report] *)
}

let iv = Format.asprintf "%a" Interval.pp

let contains_tol ~tol i x =
  let slack = tol *. (1. +. Float.abs x) in
  Interval.lo i -. slack <= x && x <= Interval.hi i +. slack

(* Random interval: mixed signs, occasional degenerate width. *)
let gen_interval ?(span = 20.) rng =
  let c = Prng.uniform rng (-.span) span in
  let r = if Prng.float rng 1. < 0.1 then 0. else Prng.float rng (0.5 *. span) in
  Interval.make (c -. r) (c +. r)

let gen_box rng ~dim =
  Box.of_intervals (Array.init dim (fun _ -> gen_interval ~span:3. rng))

(* --- scalar interval transformers ------------------------------------- *)

let unary_check name f_abs f_conc rng trial =
  let a = gen_interval rng in
  let x = Interval.sample rng a in
  let out = f_abs a in
  let y = f_conc x in
  if Interval.contains out y then None
  else
    Some
      (Printf.sprintf "%s: f(%.17g) = %.17g escapes %s (input %s)" name x y
        (iv out) (iv a))
  |> Option.map (fun detail -> { op = name; trial; seed = 0; detail })

let binary_check name f_abs f_conc rng trial =
  let a = gen_interval rng and b = gen_interval rng in
  let x = Interval.sample rng a and y = Interval.sample rng b in
  let out = f_abs a b in
  let z = f_conc x y in
  if Interval.contains out z then None
  else
    Some
      {
        op = name;
        trial;
        seed = 0;
        detail =
          Printf.sprintf "%s: f(%.17g, %.17g) = %.17g escapes %s (inputs %s %s)"
            name x y z (iv out) (iv a) (iv b);
      }

(* Deterministic corner probes for the 0·∞ annihilation convention: the
   abstract product of closed intervals must never produce NaN bounds,
   and must keep containing every finite concrete product. *)
let interval_mul_edge _rng trial =
  let inf = Float.infinity in
  let full = Interval.make (-.inf) inf in
  let probes =
    [
      ("mul [0,0] [-inf,inf]", Interval.mul (Interval.of_point 0.) full, 0.);
      ("mul [-inf,inf] [0,0]", Interval.mul full (Interval.of_point 0.), 0.);
      ( "mul [0,5] [0,inf]",
        Interval.mul (Interval.make 0. 5.) (Interval.make 0. inf),
        4. *. 1e12 );
      ("scale 0 [-inf,inf]", Interval.scale 0. full, 0.);
      ("scale -0 [-inf,inf]", Interval.scale (-0.) full, 0.);
      ("mul [-inf,0] [0,3]", Interval.mul (Interval.make (-.inf) 0.) (Interval.make 0. 3.), -6.);
    ]
  in
  List.find_map
    (fun (what, out, witness) ->
      if Float.is_nan (Interval.lo out) || Float.is_nan (Interval.hi out) then
        Some (Printf.sprintf "%s: NaN bound %s" what (iv out))
      else if not (Interval.contains out witness) then
        Some
          (Printf.sprintf "%s: witness %.17g escapes %s" what witness (iv out))
      else None)
    probes
  |> Option.map (fun detail ->
         { op = "interval.mul.edge"; trial; seed = 0; detail })

(* --- box transformers -------------------------------------------------- *)

let box_contains_tol ~tol box y =
  let ok = ref true in
  for i = 0 to Box.dim box - 1 do
    if not (contains_tol ~tol (Box.dimension box i) y.(i)) then ok := false
  done;
  !ok

let pp_vec v =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.17g") v))

let box_affine_check rng trial =
  let dim = 2 + Prng.int rng 4 in
  let rows = 1 + Prng.int rng 4 in
  let m =
    Mat.init ~rows ~cols:dim (fun _ _ -> Prng.uniform rng (-2.) 2.)
  in
  let b = Vec.init rows (fun _ -> Prng.uniform rng (-1.) 1.) in
  let box = gen_box rng ~dim in
  let x = Box.sample rng box in
  let out = Box.affine m b box in
  let y = Mat.mat_vec m x in
  Vec.axpy ~alpha:1. ~x:b ~y;
  if box_contains_tol ~tol:1e-9 out y then None
  else
    Some
      {
        op = "box.affine";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "box.affine: Mx+b (%s) escapes %s for x (%s)"
            (pp_vec y)
            (Format.asprintf "%a" Box.pp out)
            (pp_vec x);
      }

let box_diag_affine_check rng trial =
  let dim = 2 + Prng.int rng 4 in
  let box = gen_box rng ~dim in
  let scale = Vec.init dim (fun _ -> Prng.uniform rng (-3.) 3.) in
  let shift = Vec.init dim (fun _ -> Prng.uniform rng (-2.) 2.) in
  let x = Box.sample rng box in
  let out = Box.diag_affine ~scale ~shift box in
  let y = Vec.init dim (fun i -> (scale.(i) *. x.(i)) +. shift.(i)) in
  if box_contains_tol ~tol:1e-9 out y then None
  else
    Some
      {
        op = "box.diag_affine";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "box.diag_affine: image (%s) escapes %s" (pp_vec y)
            (Format.asprintf "%a" Box.pp out);
      }

let box_monotone_check rng trial =
  let dim = 2 + Prng.int rng 4 in
  let box = gen_box rng ~dim in
  let x = Box.sample rng box in
  let out = Box.map_monotone Float.tanh box in
  let y = Array.map Float.tanh x in
  if box_contains_tol ~tol:0. out y then None
  else
    Some
      {
        op = "box.map_monotone";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "box.map_monotone tanh: image (%s) escapes %s"
            (pp_vec y)
            (Format.asprintf "%a" Box.pp out);
      }

(* --- network passes ---------------------------------------------------- *)

type net_pool = { mutable net : Canopy_nn.Mlp.t option; mutable age : int }

let fresh_net rng =
  let in_dim = 3 + Prng.int rng 5 in
  let hidden = 6 + Prng.int rng 10 in
  Canopy_nn.Mlp.actor ~rng ~in_dim ~hidden ~out_dim:1

(* Re-use each random network for a handful of samples: building the net
   dominates the cost of one forward pass. *)
let pooled pool rng =
  (match pool.net with
  | Some _ when pool.age < 20 -> pool.age <- pool.age + 1
  | _ ->
      pool.net <- Some (fresh_net rng);
      pool.age <- 0);
  Option.get pool.net

let ibp_pool = { net = None; age = 0 }
let zono_pool = { net = None; age = 0 }

(* A random box over the net's input; dimensions where [point] holds get
   radius 0. *)
let net_box ?(point = fun _ -> false) rng net =
  let in_dim = Canopy_nn.Mlp.in_dim net in
  Box.of_intervals
    (Array.init in_dim (fun j ->
         let c = Prng.uniform rng (-1.) 1. in
         let r = Prng.float rng 0.7 in
         let r = if point j then 0. else r in
         Interval.make (c -. r) (c +. r)))

(* Half the IR workloads pin a random set of input dimensions to points
   in every box, as a certificate pins all but its delay dimensions, so
   the batched transfer skips dead radius columns under the audit. *)
let shared_points rng net =
  if Prng.bool rng then
    Array.get (Array.init (Canopy_nn.Mlp.in_dim net) (fun _ -> Prng.bool rng))
  else fun _ -> false

let ibp_check rng trial =
  let net = pooled ibp_pool rng in
  let box = net_box rng net in
  let x = Box.sample rng box in
  let out = Ibp.output_interval net box in
  let y = (Canopy_nn.Mlp.forward net x).(0) in
  if contains_tol ~tol:1e-9 out y then None
  else
    Some
      {
        op = "ibp.mlp";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "ibp.mlp: forward %.17g escapes %s for x (%s)" y
            (iv out) (pp_vec x);
      }

let zono_mlp_check rng trial =
  let net = pooled zono_pool rng in
  let box = net_box rng net in
  let x = Box.sample rng box in
  let out = Zonotope.output_interval net box in
  let y = (Canopy_nn.Mlp.forward net x).(0) in
  if contains_tol ~tol:1e-9 out y then None
  else
    Some
      {
        op = "zonotope.mlp";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "zonotope.mlp: forward %.17g escapes %s for x (%s)" y
            (iv out) (pp_vec x);
      }

(* --- verifier-IR passes ------------------------------------------------ *)

let anet_pool = { net = None; age = 0 }

(* Mix in critic-shaped nets (no batch norm, linear head) so extraction
   covers both the flush-on-activation and trailing-affine paths. *)
let fresh_anet_net rng =
  if Prng.bool rng then fresh_net rng
  else
    let state_dim = 2 + Prng.int rng 4 in
    let hidden = 6 + Prng.int rng 10 in
    Canopy_nn.Mlp.critic ~rng ~state_dim ~action_dim:1 ~hidden

let pooled_anet rng =
  (match anet_pool.net with
  | Some _ when anet_pool.age < 20 -> anet_pool.age <- anet_pool.age + 1
  | _ ->
      anet_pool.net <- Some (fresh_anet_net rng);
      anet_pool.age <- 0);
  Option.get anet_pool.net

(* f(x) ∈ F(X) over the batched center–radius pass: a random workload of
   boxes through [Anet.output_intervals], then one box's sample checked
   against its interval. Uses the generation cache on purpose — a stale
   IR is exactly the kind of escape this audit must catch. *)
let anet_batched_check rng trial =
  let net = pooled_anet rng in
  let ir = Anet.cached net in
  let k = 1 + Prng.int rng 4 in
  let point = shared_points rng net in
  let boxes = Array.init k (fun _ -> net_box ~point rng net) in
  let outs = Anet.output_intervals ir boxes in
  let j = Prng.int rng k in
  let x = Box.sample rng boxes.(j) in
  let y = (Canopy_nn.Mlp.forward net x).(0) in
  if contains_tol ~tol:1e-9 outs.(j) y then None
  else
    Some
      {
        op = "anet.ibp.batched";
        trial;
        seed = 0;
        detail =
          Printf.sprintf
            "anet.ibp.batched: forward %.17g escapes %s (box %d of %d) for x \
             (%s)"
            y (iv outs.(j)) j k (pp_vec x);
      }

(* Fused multi-dimensional propagate: every output dimension of the IR
   image must contain the concrete forward (exercises critic heads with
   out_dim-agnostic [Anet.propagate]). *)
let anet_propagate_check rng trial =
  let net = pooled_anet rng in
  let ir = Anet.cached net in
  let box = net_box rng net in
  let x = Box.sample rng box in
  let out = Anet.propagate ir box in
  let y = Canopy_nn.Mlp.forward net x in
  if box_contains_tol ~tol:1e-9 out y then None
  else
    Some
      {
        op = "anet.propagate";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "anet.propagate: forward (%s) escapes %s for x (%s)"
            (pp_vec y)
            (Format.asprintf "%a" Box.pp out)
            (pp_vec x);
      }

let anet_zono_check rng trial =
  let net = pooled_anet rng in
  let ir = Anet.cached net in
  let box = net_box ~point:(shared_points rng net) rng net in
  let x = Box.sample rng box in
  let out = (Zonotope.output_intervals_anet ir [| box |]).(0) in
  let y = (Canopy_nn.Mlp.forward net x).(0) in
  if contains_tol ~tol:1e-9 out y then None
  else
    Some
      {
        op = "anet.zonotope";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "anet.zonotope: forward %.17g escapes %s for x (%s)"
            y (iv out) (pp_vec x);
      }

let zono_activation_check name transform concrete rng trial =
  let dim = 2 + Prng.int rng 4 in
  let box = gen_box rng ~dim in
  let x = Box.sample rng box in
  let z = Zonotope.of_box box in
  let z' = transform z in
  let y = Array.map concrete x in
  let conc = Zonotope.concretize z' in
  if box_contains_tol ~tol:1e-9 conc y then None
  else
    Some
      {
        op = name;
        trial;
        seed = 0;
        detail =
          Printf.sprintf "%s: image (%s) of (%s) escapes %s" name (pp_vec y)
            (pp_vec x)
            (Format.asprintf "%a" Box.pp conc);
      }

let zono_affine_check rng trial =
  let dim = 2 + Prng.int rng 4 in
  let rows = 1 + Prng.int rng 4 in
  let m = Mat.init ~rows ~cols:dim (fun _ _ -> Prng.uniform rng (-2.) 2.) in
  let b = Vec.init rows (fun _ -> Prng.uniform rng (-1.) 1.) in
  let box = gen_box rng ~dim in
  let x = Box.sample rng box in
  let z = Zonotope.affine m b (Zonotope.of_box box) in
  let y = Mat.mat_vec m x in
  Vec.axpy ~alpha:1. ~x:b ~y;
  let conc = Zonotope.concretize z in
  if box_contains_tol ~tol:1e-9 conc y then None
  else
    Some
      {
        op = "zonotope.affine";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "zonotope.affine: Mx+b (%s) escapes %s" (pp_vec y)
            (Format.asprintf "%a" Box.pp conc);
      }

(* --- distilled tree ------------------------------------------------------ *)

(* Random complete tree of random depth in heap order (node i's children
   at 2i+1 and 2i+2). Split features come from at most three dimensions,
   so paths repeat them and some contradict themselves, leaving dead
   leaves; a fifth of the coefficients are zero. The splits are returned
   beside the tree. *)
let random_tree rng =
  let in_dim = 2 + Prng.int rng 4 in
  let internal = (1 lsl (1 + Prng.int rng 5)) - 1 in
  let n = (2 * internal) + 1 and n_leaves = internal + 1 in
  let feature = Array.init internal (fun _ -> Prng.int rng (min in_dim 3)) in
  let threshold = Array.init internal (fun _ -> Prng.uniform rng (-2.) 2.) in
  let coef =
    Array.init (n_leaves * in_dim) (fun _ ->
        if Prng.float rng 1. < 0.2 then 0. else Prng.uniform rng (-3.) 3.)
  in
  let bias = Array.init n_leaves (fun _ -> Prng.uniform rng (-1.) 1.) in
  let node f ~leaf i = if i < internal then f i else leaf in
  let tree =
    Canopy_distill.Tree.build ~in_dim ~coef ~bias
      ~feature:(Array.init n (node (Array.get feature) ~leaf:(-1)))
      ~threshold:(Array.init n (node (Array.get threshold) ~leaf:0.))
      ~left:(Array.init n (node (fun i -> (2 * i) + 1) ~leaf:0))
      ~right:(Array.init n (node (fun i -> (2 * i) + 2) ~leaf:0))
      ~leaf:(Array.init n (fun i -> if i < internal then -1 else i - internal))
  in
  (tree, feature, threshold)

(* The exact bound accumulates each leaf's terms in [predict]'s order, so
   monotone rounding makes containment exact: no tolerance. Half the
   boxes pin one split feature to its threshold, a closed-boundary tie
   that both neighbouring cells must hold. *)
let tree_exact_check rng trial =
  let tree, feature, threshold = random_tree rng in
  let box = gen_box rng ~dim:(Canopy_distill.Tree.in_dim tree) in
  let box =
    if Prng.bool rng then
      let k = Prng.int rng (Array.length feature) in
      Box.with_dimension box feature.(k) (Interval.of_point threshold.(k))
    else box
  in
  let x = Box.sample rng box in
  let ivs = Box.to_intervals box in
  let out =
    Canopy_distill.Tree.output_interval tree
      ~lo:(Array.map Interval.lo ivs) ~hi:(Array.map Interval.hi ivs)
  in
  let y = Canopy_distill.Tree.predict tree x in
  if Interval.contains out y then None
  else
    Some
      {
        op = "tree.exact";
        trial;
        seed = 0;
        detail =
          Printf.sprintf "tree.exact: predict %.17g escapes %s for x (%s)" y
            (iv out) (pp_vec x);
      }

(* --- the op table ------------------------------------------------------ *)

let leaky_slope = 0.01

let ops : (string * (Prng.t -> int -> violation option)) list =
  [
    ("interval.add", binary_check "interval.add" Interval.add ( +. ));
    ("interval.sub", binary_check "interval.sub" Interval.sub ( -. ));
    ("interval.mul", binary_check "interval.mul" Interval.mul ( *. ));
    ( "interval.neg",
      unary_check "interval.neg" Interval.neg (fun x -> -.x) );
    ( "interval.scale",
      fun rng trial ->
        let alpha = Prng.uniform rng (-5.) 5. in
        unary_check "interval.scale"
          (Interval.scale alpha)
          (fun x -> alpha *. x)
          rng trial );
    ( "interval.add_scalar",
      fun rng trial ->
        let c = Prng.uniform rng (-5.) 5. in
        unary_check "interval.add_scalar" (Interval.add_scalar c)
          (fun x -> x +. c)
          rng trial );
    ("interval.tanh", unary_check "interval.tanh" Interval.tanh Float.tanh);
    ( "interval.relu",
      unary_check "interval.relu" Interval.relu (fun x -> Float.max 0. x) );
    ( "interval.leaky_relu",
      unary_check "interval.leaky_relu"
        (Interval.leaky_relu ~slope:leaky_slope)
        (fun x -> if x >= 0. then x else leaky_slope *. x) );
    ( "interval.pow2",
      unary_check "interval.pow2" Interval.pow2 Canopy_util.Mathx.pow2 );
    ("interval.mul.edge", interval_mul_edge);
    ("box.affine", box_affine_check);
    ("box.diag_affine", box_diag_affine_check);
    ("box.map_monotone", box_monotone_check);
    ("ibp.mlp", ibp_check);
    ( "zonotope.relu",
      zono_activation_check "zonotope.relu" Zonotope.relu (fun x ->
          Float.max 0. x) );
    ( "zonotope.leaky_relu",
      zono_activation_check "zonotope.leaky_relu"
        (Zonotope.leaky_relu ~slope:leaky_slope)
        (fun x -> if x >= 0. then x else leaky_slope *. x) );
    ("zonotope.tanh", zono_activation_check "zonotope.tanh" Zonotope.tanh Float.tanh);
    ("zonotope.affine", zono_affine_check);
    ("zonotope.mlp", zono_mlp_check);
    ("anet.propagate", anet_propagate_check);
    ("anet.ibp.batched", anet_batched_check);
    ("anet.zonotope", anet_zono_check);
    ("tree.exact", tree_exact_check);
  ]

let op_names = List.map fst ops

let run ?(seed = 2026) ?(max_report = 25) ~samples () =
  if samples <= 0 then invalid_arg "Soundcheck.run: samples";
  ibp_pool.net <- None;
  zono_pool.net <- None;
  anet_pool.net <- None;
  let rng = Prng.create seed in
  let table = Array.of_list ops in
  let nops = Array.length table in
  let counts = Array.make nops 0 in
  let violations = ref [] in
  let nviol = ref 0 in
  for trial = 0 to samples - 1 do
    let k = trial mod nops in
    let name, check = table.(k) in
    counts.(k) <- counts.(k) + 1;
    match check rng trial with
    | None -> ()
    | Some v ->
        incr nviol;
        if !nviol <= max_report then
          violations := { v with seed; op = name } :: !violations
  done;
  {
    samples;
    per_op = List.mapi (fun i (name, _) -> (name, counts.(i))) ops;
    violation_count = !nviol;
    violations = List.rev !violations;
  }

let pp_violation ppf v =
  Format.fprintf ppf "UNSOUND [%s] trial=%d seed=%d %s" v.op v.trial v.seed
    v.detail
