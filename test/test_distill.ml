(* Tests for the symbolic distillation stack: checkpoint round-trips,
   exactness/soundness of the per-leaf interval bounds (bit-equality with
   an all-leaves reference and a sampling audit over random boxes),
   fidelity against the committed fixture actor, bit-equality of batched
   tree serving across domain counts, and scalar-vs-fleet serving
   agreement for both policy kinds. *)

module Tree = Canopy_distill.Tree
module Fit = Canopy_distill.Fit
module Harvest = Canopy_distill.Harvest
module Interval = Canopy_absint.Interval
module Mat = Canopy_tensor.Mat
module Prng = Canopy_util.Prng
module Pool = Canopy_util.Pool
module Agent_env = Canopy_orca.Agent_env
module Fleet_env = Canopy_orca.Fleet_env
module Trace = Canopy_trace.Trace
module Policy = Canopy.Policy
module Eval = Canopy.Eval
module Fleet_eval = Canopy.Fleet_eval
module Certify = Canopy.Certify
module Property = Canopy.Property

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let bits a = Array.map Int64.bits_of_float a
let clamp = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

let fixture name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "fixtures") name

(* Same helper as test_pool: a fresh default pool of [d] domains for the
   duration of [f], previous default restored afterwards. *)
let with_default_pool d f =
  let saved = Pool.default () in
  let pool = Pool.create ~domains:d () in
  Pool.set_default pool;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_default saved;
      Pool.shutdown pool)
    (fun () -> f ())

let with_tiny_grain f =
  let min_flops, saved_chunk = Mat.parallel_grain () in
  Mat.set_parallel_grain ~min_flops:1 ~chunk_flops:1;
  Fun.protect
    ~finally:(fun () ->
      Mat.set_parallel_grain ~min_flops ~chunk_flops:saved_chunk)
    f

(* Synthetic regression data with genuine piecewise-affine structure so
   the fitter has real splits to discover. *)
let synthetic_data ~rng ~n ~d =
  let xs = Mat.init ~rows:n ~cols:d (fun _ _ -> Prng.float rng 1.) in
  let raw = Mat.raw xs in
  let ys =
    Array.init n (fun i ->
        let x0 = raw.(i * d) and x1 = raw.((i * d) + 1) in
        if x0 < 0.4 then (0.8 *. x0) -. (0.3 *. x1) +. 0.1
        else (-0.5 *. x0) +. (0.6 *. x1) -. 0.2)
  in
  (xs, ys)

let fitted_tree ?(n = 2_000) ?(d = 7) ?(max_leaves = 16) ~seed () =
  let rng = Prng.create seed in
  let xs, ys = synthetic_data ~rng ~n ~d in
  let config = { Fit.default_config with max_leaves; min_samples_leaf = 16 } in
  (Fit.fit ~config ~xs ~ys (), xs, ys)

(* ------------------------------------------------------------------ *)
(* Fitting basics *)

let test_fit_improves_on_constant () =
  let tree, xs, ys = fitted_tree ~seed:3 () in
  let n = float_of_int (Array.length ys) in
  let mean = Canopy_util.Mathx.sum ys /. n in
  let var =
    Canopy_util.Mathx.sum (Array.map (fun y -> (y -. mean) ** 2.) ys) /. n
  in
  let m = Fit.mse tree ~xs ~ys in
  check_bool "multi-leaf" true (Tree.n_leaves tree > 1);
  check_bool
    (Printf.sprintf "mse %.2e well below variance %.2e" m var)
    true
    (m < 0.05 *. var)

let test_fit_deterministic () =
  let t1, _, _ = fitted_tree ~seed:5 () in
  let t2, _, _ = fitted_tree ~seed:5 () in
  check_bool "same structure and models" true
    (Tree.to_string t1 = Tree.to_string t2)

(* ------------------------------------------------------------------ *)
(* Checkpoint round-trip *)

let test_checkpoint_roundtrip_bit_exact () =
  let tree, xs, _ = fitted_tree ~seed:7 () in
  let path = Filename.temp_file "canopy_tree" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Tree.save path tree;
      let back = Tree.load path in
      check_bool "serialization identical" true
        (Tree.to_string tree = Tree.to_string back);
      let raw = Mat.raw xs in
      let d = Tree.in_dim tree in
      for i = 0 to 99 do
        let x = Array.sub raw (i * d) d in
        check_bool "prediction bits identical" true
          (Int64.bits_of_float (Tree.predict tree x)
          = Int64.bits_of_float (Tree.predict back x))
      done)

(* naive substring search so the corruption test needs no regex library *)
let find_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then invalid_arg "find_sub"
    else if String.sub haystack i nn = needle then i
    else go (i + 1)
  in
  go 0

(* One valid tiny checkpoint, then targeted corruptions of every layer of
   the format: magic, counts, node structure, leaf-model arity, float
   syntax, NaN, truncation, trailing garbage. *)
let test_checkpoint_rejects_corruption () =
  let good =
    "canopy-tree v1\n\
     in_dim 2\n\
     nodes 3\n\
     leaves 2\n\
     split 0 0x1p-1 1 2\n\
     leaf 0\n\
     leaf 1\n\
     0x1p-1 0x0p+0 0x1p-2\n\
     0x0p+0 0x1p-3 0x0p+0\n"
  in
  let t = Tree.of_string good in
  check_int "parses: leaves" 2 (Tree.n_leaves t);
  check_bool "predicts left model" true (Tree.predict t [| 0.; 0. |] = 0.25);
  let rejects label text =
    check_bool label true
      (match Tree.of_string text with
      | _ -> false
      | exception Failure _ -> true)
  in
  let replace ~bad ~by =
    let i = find_sub good bad in
    String.sub good 0 i ^ by
    ^ String.sub good
        (i + String.length bad)
        (String.length good - i - String.length bad)
  in
  rejects "bad magic" (replace ~bad:"canopy-tree v1" ~by:"canopy-mlp v1");
  rejects "truncated" (String.sub good 0 (String.length good / 2));
  rejects "trailing garbage" (good ^ "extra\n");
  rejects "malformed float" (replace ~bad:"0x1p-1 0x0p+0" ~by:"0xZp-1 0x0p+0");
  rejects "nan model" (replace ~bad:"0x1p-3" ~by:"nan");
  rejects "wrong leaf arity"
    (replace ~bad:"0x0p+0 0x1p-3 0x0p+0" ~by:"0x0p+0 0x1p-3");
  rejects "child before parent"
    (replace ~bad:"split 0 0x1p-1 1 2" ~by:"split 0 0x1p-1 0 2");
  (* nodes 1 and 2 both route left to node 3: a DAG, not a tree *)
  rejects "shared child"
    "canopy-tree v1\n\
     in_dim 2\n\
     nodes 6\n\
     leaves 3\n\
     split 0 0x0p+0 1 2\n\
     split 1 -0x1p-1 3 4\n\
     split 1 -0x1p-1 3 5\n\
     leaf 0\n\
     leaf 1\n\
     leaf 2\n\
     0x0p+0 0x0p+0 0x0p+0\n\
     0x0p+0 0x0p+0 0x1p+0\n\
     0x0p+0 0x0p+0 -0x1p+0\n";
  rejects "bad count" (replace ~bad:"nodes 3" ~by:"nodes 4");
  rejects "malformed count" (replace ~bad:"in_dim 2" ~by:"in_dim two")

(* ------------------------------------------------------------------ *)
(* Reference bound: every leaf's cell rebuilt from its root path, then
   the leaf model bounded over box ∩ cell, leaf by leaf.  The tree's
   arrays are read back from its checkpoint text (hex floats, exact). *)

type nodes = Oracle.tree_nodes = {
  feature : int array;
  threshold : float array;
  left : int array;
  right : int array;
  leaf : int array;
  coef : float array;
  bias : float array;
}

let nodes_of = Oracle.tree_nodes_of

(* The leaf's closed cell: per dimension, the interval implied by the
   split constraints on its root path. *)
let leaf_cell t ~d ~leaf =
  let n = Array.length t.feature in
  let target = ref (-1) in
  Array.iteri (fun i l -> if l = leaf then target := i) t.leaf;
  let target = !target in
  let lo = Array.make d neg_infinity and hi = Array.make d infinity in
  (* ancestors of [target], marked by a reverse pass (children follow
     their parents) *)
  let on_path = Array.make n false in
  on_path.(target) <- true;
  for i = n - 1 downto 0 do
    if t.feature.(i) >= 0 && (on_path.(t.left.(i)) || on_path.(t.right.(i)))
    then on_path.(i) <- true
  done;
  let i = ref 0 in
  while !i <> target do
    let f = t.feature.(!i) and thr = t.threshold.(!i) in
    if on_path.(t.left.(!i)) then begin
      if thr < hi.(f) then hi.(f) <- thr;
      i := t.left.(!i)
    end
    else begin
      if thr > lo.(f) then lo.(f) <- thr;
      i := t.right.(!i)
    end
  done;
  Array.init d (fun j -> Interval.make lo.(j) hi.(j))

(* bias + coef . x over a box, term by term in predict's order *)
let affine_bound t ~d ~leaf box =
  let lo = ref t.bias.(leaf) and hi = ref t.bias.(leaf) in
  for j = 0 to d - 1 do
    let c = t.coef.((leaf * d) + j) in
    let a, b =
      if c = 0. then (0., 0.)
      else
        let a = c *. Interval.lo box.(j) and b = c *. Interval.hi box.(j) in
        if a <= b then (a, b) else (b, a)
    in
    lo := !lo +. a;
    hi := !hi +. b
  done;
  Interval.make !lo !hi

let reference_interval ~exact t ~d box =
  let acc = ref None in
  for leaf = 0 to Array.length t.bias - 1 do
    let clipped =
      if not exact then Some box
      else
        let parts =
          Array.map2 Interval.intersect box (leaf_cell t ~d ~leaf)
        in
        if Array.for_all Option.is_some parts then
          Some (Array.map Option.get parts)
        else None
    in
    Option.iter
      (fun clipped ->
        let iv = affine_bound t ~d ~leaf clipped in
        acc :=
          Some (match !acc with None -> iv | Some a -> Interval.hull a iv))
      clipped
  done;
  Option.get !acc

(* ------------------------------------------------------------------ *)
(* Leaf-bound exactness: reference bit-equality and sampling audit *)

(* [Tree.output_interval] over a box given as interval records. *)
let bound ?exact tree box =
  Tree.output_interval ?exact tree ~lo:(Array.map Interval.lo box)
    ~hi:(Array.map Interval.hi box)

let same_bits a b =
  Int64.bits_of_float (Interval.lo a) = Int64.bits_of_float (Interval.lo b)
  && Int64.bits_of_float (Interval.hi a) = Int64.bits_of_float (Interval.hi b)

(* Three box families, in turn: random cubes; certificate-shaped boxes (a
   point except over the delay dimensions, as Certify builds them); and
   boxes whose endpoints sit exactly on split thresholds, where the closed
   cells of two neighbouring leaves tie. *)
let test_output_interval_sound_and_exact () =
  let history = 5 in
  let d = history * Canopy_orca.Observation.feature_count in
  let tree, _, _ = fitted_tree ~d ~seed:11 () in
  let t = nodes_of tree in
  let delay = Certify.delay_indices ~history in
  let splits_on =
    Array.init d (fun f ->
        List.filteri (fun i _ -> t.feature.(i) = f) (Array.to_list t.threshold)
        |> Array.of_list)
  in
  let rng = Prng.create 13 in
  let cube () =
    let center = Array.init d (fun _ -> Prng.float rng 1.) in
    let radius = 0.25 *. Prng.float rng 1. in
    Array.init d (fun j ->
        Interval.make (center.(j) -. radius) (center.(j) +. radius))
  in
  let certificate_shaped () =
    let lo = Prng.float rng 1. in
    let slice = Interval.make lo (lo +. (0.5 *. Prng.float rng 1.)) in
    Array.init d (fun j ->
        if List.mem j delay then slice
        else Interval.of_point (Prng.float rng 1.))
  in
  let on_thresholds () =
    let pick ts = ts.(Prng.int rng (Array.length ts)) in
    Array.init d (fun j ->
        let ts = splits_on.(j) in
        if Array.length ts = 0 then Interval.of_point (Prng.float rng 1.)
        else
          let a = pick ts and b = pick ts in
          Interval.make (Float.min a b) (Float.max a b))
  in
  let families = [| cube; certificate_shaped; on_thresholds |] in
  for i = 1 to 10_000 do
    let box = families.(i mod 3) () in
    let exact = bound ~exact:true tree box in
    let conservative = bound ~exact:false tree box in
    check_bool "exact bits equal the reference" true
      (same_bits exact (reference_interval ~exact:true t ~d box));
    check_bool "conservative bits equal the reference" true
      (same_bits conservative (reference_interval ~exact:false t ~d box));
    (* soundness: every sampled point's prediction lies in the bound;
       half the coordinates snap to a box endpoint, hitting the ties *)
    for _ = 1 to 8 do
      let x =
        Array.init d (fun j ->
            match Prng.int rng 4 with
            | 0 -> Interval.lo box.(j)
            | 1 -> Interval.hi box.(j)
            | _ -> Interval.sample rng box.(j))
      in
      check_bool "sampled prediction inside exact bound" true
        (Interval.contains exact (Tree.predict tree x))
    done;
    (* the exact reading never widens past the conservative one *)
    check_bool "exact subset of conservative" true
      (Interval.subset exact conservative)
  done;
  (* zero coefficients add +0. like the reference, so a -0. bias reads
     as +0. (the fitted tree has no zero coefficient to show it) *)
  let zero = Tree.constant ~in_dim:d (-0.) and box = cube () in
  check_bool "signed zero as the reference" true
    (same_bits
       (bound zero box)
       (reference_interval ~exact:true (nodes_of zero) ~d box))

(* Factored sets of certificate-shaped boxes over [d] columns. The point
   has some coordinates ±0 and some on a split threshold (a point c is
   the box [c − 0, c + 0], so a −0 point reads [−0, +0]). Families: the
   delay columns varying by one slice per box (performance) or by its
   image scaled by the point (robustness), in some sets with [odd_dim]
   also passed as varying and differing only in the sign of a zero in a
   few boxes; one box; no varying column; and every column varying. *)
let random_set rng ~d ~delay ~thresholds ~odd_dim =
  let point () =
    match Prng.int rng 6 with
    | 0 -> 0.
    | 1 -> -0.
    | 2 -> thresholds.(Prng.int rng (Array.length thresholds))
    | _ -> Prng.float rng 1.
  in
  let signed_zero () = if Prng.bool rng then 0. else -0. in
  let base = Array.init d (fun _ -> point ()) in
  let rows = if Prng.int rng 5 = 0 then 1 else 1 + Prng.int rng 40 in
  let slices =
    Array.init rows (fun _ ->
        let a = Prng.float rng 1. in
        Interval.make a (a +. (0.3 *. Prng.float rng 1.)))
  in
  let family = Prng.int rng 5 in
  let odd = family < 2 && Prng.bool rng && not (List.mem odd_dim delay) in
  if odd then base.(odd_dim) <- signed_zero ();
  let vary =
    match family with
    | 0 | 1 ->
        Array.of_list
          (List.sort_uniq Int.compare
             (if odd then odd_dim :: delay else delay))
    | 2 -> [||]
    | _ -> Array.init d Fun.id
  in
  let cell k j =
    if family >= 3 then
      if Prng.bool rng then (base.(j), 0.)
      else (point (), Prng.float rng 0.3)
    else if j = odd_dim && odd then
      if Prng.int rng 3 = 0 then (signed_zero (), signed_zero ())
      else (base.(j), 0.)
    else
      let iv =
        if family = 0 then slices.(k) else Interval.scale base.(j) slices.(k)
      in
      (Interval.midpoint iv, Interval.radius iv)
  in
  let n = Array.length vary in
  let centers = Array.make (rows * n) 0. and radii = Array.make (rows * n) 0. in
  for k = 0 to rows - 1 do
    Array.iteri
      (fun m j ->
        let c, e = cell k j in
        centers.((k * n) + m) <- c;
        radii.((k * n) + m) <- e)
      vary
  done;
  { Canopy_absint.Box.rows; point = base; vary; centers; radii }

(* The rows of [set] where [Tree.output_intervals] and the dense-row
   oracle over the set's corners differ in bits, exact or conservative
   (and, with [~reference], where either differs from the all-leaves
   reference). *)
let factored_misses ?(reference = false) tree t ~d
    (set : Canopy_absint.Box.set) =
  let _, _, lo, hi = Oracle.dense_rows set in
  let rows = set.rows in
  List.concat_map
    (fun exact ->
      let out_lo = Array.make rows nan and out_hi = Array.make rows nan in
      Tree.output_intervals ~exact tree set ~out_lo ~out_hi;
      let o_lo = Array.make rows nan and o_hi = Array.make rows nan in
      Oracle.tree_bound_rows ~exact t ~d ~lo ~hi ~rows ~out_lo:o_lo
        ~out_hi:o_hi;
      List.filter_map
        (fun k ->
          let got = Interval.make out_lo.(k) out_hi.(k) in
          let ok =
            same_bits got (Interval.make o_lo.(k) o_hi.(k))
            && ((not reference)
               || same_bits got
                    (reference_interval ~exact t ~d
                       (Array.init d (fun j ->
                            Interval.make lo.((k * d) + j) hi.((k * d) + j)))))
          in
          if ok then None else Some (exact, k))
        (List.init rows Fun.id))
    [ true; false ]

(* The fitted tree and one with −0 biases that reads only column 3, so
   the sign of a zero there shows in the bound's bits. *)
let bound_trees ~d =
  let fitted, _, _ = fitted_tree ~d ~seed:11 () in
  let signed_dim = 3 in
  let signed =
    let coef = Array.make (2 * d) 0. in
    coef.(signed_dim) <- 1.;
    coef.(d + signed_dim) <- -2.;
    Tree.build ~in_dim:d ~feature:[| 0; -1; -1 |]
      ~threshold:[| 0.5; 0.; 0. |] ~left:[| 1; 0; 0 |] ~right:[| 2; 0; 0 |]
      ~leaf:[| -1; 0; 1 |] ~coef ~bias:[| -0.; -0. |]
  in
  [ ("fitted", fitted, None); ("signed zero", signed, Some signed_dim) ]

(* [Tree.output_intervals] over certificate-shaped box sets, row by row
   against the all-leaves reference and the dense-row oracle, in bits,
   exact and conservative. *)
let test_output_intervals_rows_exact () =
  let history = 5 in
  let d = history * Canopy_orca.Observation.feature_count in
  let delay = Certify.delay_indices ~history in
  let rng = Prng.create 17 in
  List.iter
    (fun (name, tree, odd_dim) ->
      let t = nodes_of tree in
      for _ = 1 to 150 do
        let odd_dim = Option.value odd_dim ~default:(Prng.int rng d) in
        let set =
          random_set rng ~d ~delay ~thresholds:t.threshold ~odd_dim
        in
        match factored_misses ~reference:true tree t ~d set with
        | [] -> ()
        | (exact, k) :: _ ->
            Alcotest.failf "%s, exact %b, %d rows, %d varying: row %d differs"
              name exact set.rows (Array.length set.vary) k
      done)
    (bound_trees ~d)

(* A 3-column tree whose splits sit at +0 and −0 and whose leaves read
   every column, with −0 biases, and sets whose every coordinate, center
   and radius is a signed zero: a bound is −0 only when every term is, so
   the clips against the cell, the products and the hull fold show the
   sign of each zero in the bits. *)
let zero_tree =
  Tree.build ~in_dim:3 ~feature:[| 0; 1; -1; -1; -1 |]
    ~threshold:[| 0.; -0.; 0.; 0.; 0. |] ~left:[| 1; 3; 0; 0; 0 |]
    ~right:[| 2; 4; 0; 0; 0 |] ~leaf:[| -1; -1; 0; 1; 2 |]
    ~coef:[| 1.; 1.; 1.; -1.; 1.; -2.; 2.; -1.; -1. |]
    ~bias:[| -0.; -0.; -0. |]

(* One leaf reading every column: no clip hides the sign of a corner. *)
let zero_leaf =
  Tree.build ~in_dim:3 ~feature:[| -1 |] ~threshold:[| 0. |] ~left:[| 0 |]
    ~right:[| 0 |] ~leaf:[| 0 |] ~coef:[| 1.; 1.; 1. |] ~bias:[| -0. |]

let zero_set rng =
  let zero () = if Prng.bool rng then 0. else -0. in
  let rows = 1 + Prng.int rng 6 in
  let vary =
    Array.of_list (List.filter (fun _ -> Prng.bool rng) [ 0; 1; 2 ])
  in
  let cells = rows * Array.length vary in
  {
    Canopy_absint.Box.rows;
    point = Array.init 3 (fun _ -> zero ());
    vary;
    centers = Array.init cells (fun _ -> zero ());
    radii = Array.init cells (fun _ -> zero ());
  }

(* The factored bound against the dense-row oracle over random
   certificate-shaped sets, both trees, and over signed-zero sets, both
   zero trees, exact and conservative. *)
let qcheck_factored_bound =
  let d = 5 * Canopy_orca.Observation.feature_count in
  let delay = Certify.delay_indices ~history:5 in
  let trees =
    lazy
      (Array.of_list
         (List.map (fun (_, tree, odd) -> (tree, nodes_of tree, odd))
            (bound_trees ~d)))
  in
  let zeros =
    lazy
      (Array.map
         (fun tree -> (tree, nodes_of tree))
         [| zero_tree; zero_leaf |])
  in
  QCheck.Test.make ~name:"factored bound = dense-row oracle (bits)"
    ~count:800
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (which, seed) ->
      let rng = Prng.create seed in
      if which >= 2 then
        let tree, t = (Lazy.force zeros).(which - 2) in
        factored_misses tree t ~d:3 (zero_set rng) = []
      else begin
        let tree, t, odd = (Lazy.force trees).(which) in
        let odd_dim = Option.value odd ~default:(Prng.int rng d) in
        factored_misses tree t ~d
          (random_set rng ~d ~delay ~thresholds:t.threshold ~odd_dim)
        = []
      end)

(* A leaf whose root path contradicts itself (left on x0 < 0, then right
   on x0 >= 1) has an empty cell.  It is never reached: its model must
   not widen the bound, and its empty cell must not make bounding or
   certification fail. *)
(* The corner arrays must be [in_dim] long and ordered, NaN-free. *)
let test_output_interval_rejects_bad_box () =
  let tree = Tree.constant ~in_dim:3 0.5 in
  let raises name msg ~lo ~hi =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Tree.output_interval tree ~lo ~hi))
  in
  let ok = [| 0.; 0.; 0. |] in
  raises "short lo" "Tree.output_interval: bad box dim" ~lo:[| 0.; 0. |] ~hi:ok;
  raises "long hi" "Tree.output_interval: bad box dim" ~lo:ok
    ~hi:[| 0.; 0.; 0.; 0. |];
  raises "lo > hi" "Tree.output_interval: bad box" ~lo:[| 0.; 1.; 0. |] ~hi:ok;
  raises "NaN corner" "Tree.output_interval: bad box" ~lo:ok
    ~hi:[| 0.; Float.nan; 0. |];
  (* A set's radii must be non-negative and its corners ordered and
     NaN-free, on shared and varying columns alike. *)
  let set ?(rows = 2) ?(point = [| 0.; 0.; 0. |]) ?(center = 0.)
      ?(radius = 0.1) () =
    {
      Canopy_absint.Box.rows;
      point;
      vary = [| 1 |];
      centers = Array.init rows (fun k -> if k = rows - 1 then center else 0.);
      radii = Array.init rows (fun k -> if k = rows - 1 then radius else 0.1);
    }
  in
  let raises_set ?(out = 2) name msg set =
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        Tree.output_intervals tree set ~out_lo:(Array.make out 0.)
          ~out_hi:(Array.make out 0.))
  in
  let shape = "Tree.output_intervals: shape"
  and deviation = "Tree.output_intervals: deviation"
  and bad = "Tree.output_intervals: bad box" in
  raises_set "short point" shape (set ~point:[| 0.; 0. |] ());
  raises_set "column out of range" shape { (set ()) with vary = [| 3 |] };
  raises_set "short block" shape { (set ()) with centers = [| 0. |] };
  raises_set "negative radius" deviation (set ~radius:(-1e-300) ());
  raises_set "NaN radius" deviation (set ~radius:Float.nan ());
  raises_set "NaN center" bad (set ~center:Float.nan ());
  raises_set "infinite corners" bad
    (set ~center:Float.infinity ~radius:Float.infinity ());
  raises_set "NaN point" bad (set ~point:[| Float.nan; 0.; 0. |] ());
  raises_set ~out:1 "short output" "Tree.output_intervals: bad output length"
    (set ());
  (* a varying column's point cell is not read *)
  Tree.output_intervals tree
    (set ~point:[| 0.; Float.nan; 0. |] ())
    ~out_lo:(Array.make 2 0.) ~out_hi:(Array.make 2 0.)

let test_output_interval_dead_leaf () =
  let d = 5 * Canopy_orca.Observation.feature_count in
  (* leaf 0: x0; leaf 1 (dead): 100; leaf 2: x1 *)
  let coef = Array.make (3 * d) 0. in
  coef.(0) <- 1.;
  coef.((2 * d) + 1) <- 1.;
  let tree =
    Tree.build ~in_dim:d ~feature:[| 0; 0; -1; -1; -1 |]
      ~threshold:[| 0.; 1.; 0.; 0.; 0. |] ~left:[| 1; 2; 0; 0; 0 |]
      ~right:[| 4; 3; 0; 0; 0 |] ~leaf:[| -1; -1; 0; 1; 2 |] ~coef
      ~bias:[| 0.; 100.; 0. |]
  in
  let box =
    Array.init d (fun j ->
        match j with
        | 0 -> Interval.make (-1.) 2.
        | 1 -> Interval.make (-1.) 1.
        | _ -> Interval.of_point 0.)
  in
  let exact = bound tree box in
  check_bool "hull of the reachable leaves" true
    (Interval.lo exact = -1. && Interval.hi exact = 1.);
  check_bool "conservative reading still counts the dead leaf" true
    (Interval.hi (bound ~exact:false tree box) = 100.);
  let c =
    Certify.certify_tree ~tree ~property:(Property.performance ())
      ~n_components:5 ~history:5 ~state:(Array.make d 0.5) ~cwnd_tcp:80.
      ~prev_cwnd:80. ()
  in
  check_int "certifies every component" 10 (Array.length c.Certify.components)

(* A degenerate (point) box must produce a degenerate bound that equals
   the concrete prediction to the bit — the "exact" in exact
   certification — except on the measure-zero closed cell boundaries,
   where the hull must still contain the prediction. *)
let test_point_box_bit_exact () =
  let tree, _, _ = fitted_tree ~seed:15 () in
  let d = Tree.in_dim tree in
  let rng = Prng.create 17 in
  for _ = 1 to 1_000 do
    let x = Array.init d (fun _ -> Prng.float rng 1.) in
    let box = Array.map Interval.of_point x in
    let iv = bound ~exact:true tree box in
    let y = Tree.predict tree x in
    if Interval.is_point iv then begin
      check_bool "lo bit-equal" true
        (Int64.bits_of_float (Interval.lo iv) = Int64.bits_of_float y);
      check_bool "hi bit-equal" true
        (Int64.bits_of_float (Interval.hi iv) = Int64.bits_of_float y)
    end
    else check_bool "hull spans prediction" true (Interval.contains iv y)
  done

(* ------------------------------------------------------------------ *)
(* Distillation of the committed fixture actor *)

let agent_cfg ~duration_ms i =
  let mbps = 16. +. (8. *. float_of_int (i mod 3)) in
  let trace =
    Trace.constant ~name:(Printf.sprintf "a%d" (i mod 3)) ~duration_ms ~mbps
  in
  {
    (Agent_env.default_config ~trace ~min_rtt_ms:40 ~buffer_pkts:120
       ~duration_ms)
    with
    Agent_env.interval_ms = Some 40;
  }

let distilled_fixture =
  lazy
    (let actor = Canopy.Trainer.load_actor (fixture "actor_h8.ckpt") in
     let cfgs = Array.init 4 (fun i -> agent_cfg ~duration_ms:2_000 i) in
     let xs, ys = Harvest.collect ~actor cfgs in
     let config =
       { Fit.default_config with max_leaves = 32; min_samples_leaf = 8 }
     in
     (actor, Fit.fit ~config ~xs ~ys (), xs, ys))

let test_fidelity_fixture_actor () =
  let actor, tree, xs, ys = Lazy.force distilled_fixture in
  let m = Fit.mse tree ~xs ~ys in
  (* regression bound: the distilled tree reproduces the fixture actor's
     served actions to a small fraction of the [-1,1] action range *)
  check_bool (Printf.sprintf "fidelity MSE %.2e below 5e-3" m) true (m < 5e-3);
  (* and a constant predictor is measurably worse *)
  let n = float_of_int (Array.length ys) in
  let mean = Canopy_util.Mathx.sum ys /. n in
  let var =
    Canopy_util.Mathx.sum (Array.map (fun y -> (y -. mean) ** 2.) ys) /. n
  in
  check_bool "beats the constant predictor" true (m < var);
  (* utility stays close on a held-out link *)
  let link =
    Eval.link ~min_rtt_ms:40 ~bdp:2.
      (Trace.constant ~name:"held-out" ~duration_ms:4_000 ~mbps:24.)
  in
  let mlp_r, _ = Eval.eval_policy ~policy:(`Mlp actor) ~history:5 link in
  let tree_r, _ = Eval.eval_policy ~policy:(`Tree tree) ~history:5 link in
  let delta =
    Float.abs (tree_r.Eval.utilization -. mlp_r.Eval.utilization)
    /. Float.max 1e-9 mlp_r.Eval.utilization
  in
  check_bool
    (Printf.sprintf "utility delta %.1f%% within 5%%" (100. *. delta))
    true (delta < 0.05)

(* ------------------------------------------------------------------ *)
(* certify_tree: the exact reading dominates the conservative one *)

let test_certify_tree_exact_dominates () =
  let _, tree, xs, _ = Lazy.force distilled_fixture in
  let history = 5 in
  let raw = Mat.raw xs in
  let d = Tree.in_dim tree in
  let rows = Mat.rows xs in
  List.iter
    (fun property ->
      for k = 0 to 9 do
        let state = Array.sub raw (k * 17 mod rows * d) d in
        let run conservative =
          Certify.certify_tree ~conservative ~tree ~property ~n_components:10
            ~history ~state ~cwnd_tcp:80. ~prev_cwnd:80. ()
        in
        let exact = run false and conservative = run true in
        check_bool "fcc: exact >= conservative" true
          (exact.Certify.fcc >= conservative.Certify.fcc);
        check_bool "r_verifier: exact >= conservative" true
          (exact.Certify.r_verifier >= conservative.Certify.r_verifier);
        (* per component, the exact action interval is a subset *)
        Array.iteri
          (fun i (c : Certify.component) ->
            check_bool "action subset" true
              (Interval.subset c.action
                 conservative.Certify.components.(i).Certify.action))
          exact.Certify.components
      done)
    [ Property.performance (); Property.robustness () ]

(* Sampling audit of certify_tree itself: concrete states drawn from a
   component's precondition slice must act inside its abstract action
   interval. *)
let test_certify_tree_sound () =
  let _, tree, xs, _ = Lazy.force distilled_fixture in
  let history = 5 in
  let d = Tree.in_dim tree in
  let raw = Mat.raw xs in
  let rows = Mat.rows xs in
  let rng = Prng.create 29 in
  let property = Property.performance () in
  let delay_idx = Certify.delay_indices ~history in
  for k = 0 to 19 do
    let state = Array.sub raw (k * 9 mod rows * d) d in
    let c =
      Certify.certify_tree ~tree ~property ~n_components:5 ~history ~state
        ~cwnd_tcp:80. ~prev_cwnd:80. ()
    in
    Array.iter
      (fun (comp : Certify.component) ->
        for _ = 1 to 20 do
          let s = Array.copy state in
          List.iter
            (fun idx -> s.(idx) <- Interval.sample rng comp.slice)
            delay_idx;
          let a = clamp (Tree.predict tree s) in
          check_bool "concrete action within abstract bound" true
            (Interval.contains comp.action a)
        done)
      c.Certify.components
  done

(* ------------------------------------------------------------------ *)
(* Batched serving: domain-sweep bit-equality *)

let test_predict_rows_domains_bit_identical () =
  let tree, xs, _ = fitted_tree ~n:4_096 ~seed:21 () in
  let rows = Mat.rows xs in
  let run () =
    with_tiny_grain (fun () ->
        let dst = Mat.create ~rows ~cols:1 in
        Tree.predict_rows_into ~dst tree xs;
        bits (Array.copy (Mat.raw dst)))
  in
  let reference = with_default_pool 1 run in
  (* the batched path agrees with scalar predict row by row *)
  let raw = Mat.raw xs in
  let d = Tree.in_dim tree in
  Array.iteri
    (fun i b ->
      check_bool "row equals scalar predict" true
        (b = Int64.bits_of_float (Tree.predict tree (Array.sub raw (i * d) d))))
    reference;
  List.iter
    (fun dn ->
      let got = with_default_pool dn run in
      check_bool (Printf.sprintf "%d domains == sequential" dn) true
        (got = reference))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Policy variant: scalar and fleet serving cannot drift *)

(* One Agent_env episode served exactly like Eval.eval_policy does it:
   a 1-row matrix through Policy.predict_rows_into, clamped. *)
let scalar_trajectory policy cfg =
  let env = Agent_env.create cfg in
  let d = Policy.in_dim policy in
  let xrow = Mat.create ~rows:1 ~cols:d
  and yrow = Mat.create ~rows:1 ~cols:1 in
  let acc = ref [] in
  let fin = ref false in
  while not !fin do
    Array.blit (Agent_env.state env) 0 (Mat.raw xrow) 0 d;
    Policy.predict_rows_into ~dst:yrow policy xrow;
    let a = clamp (Mat.raw yrow).(0) in
    let r = Agent_env.step env ~action:a in
    acc := Int64.bits_of_float r.Agent_env.cwnd_enforced :: !acc;
    fin := r.Agent_env.finished
  done;
  List.rev !acc

let fleet_trajectory policy cfg =
  let acc = ref [] in
  let _ =
    Fleet_eval.serve ~policy
      ~on_tick:(fun ~tick:_ ~actions:_ ~result ->
        acc := Int64.bits_of_float result.Fleet_env.cwnd_enforced.(0) :: !acc)
      (Fleet_env.create [| cfg |])
  in
  List.rev !acc

(* Mixed decision intervals (the trainer's stratified pool derives them
   from min-RTT) must harvest as one fleet per interval, not trip
   Fleet_env's homogeneity check. *)
let test_harvest_mixed_intervals () =
  let actor, _, _, _ = Lazy.force distilled_fixture in
  let with_interval ms i =
    { (agent_cfg ~duration_ms:1_200 i) with Agent_env.interval_ms = Some ms }
  in
  let cfgs = [| with_interval 40 0; with_interval 60 1; with_interval 40 2 |] in
  let xs, ys = Harvest.collect ~actor cfgs in
  (* per interval group: flows * (duration / interval) rows *)
  let expected = (2 * (1_200 / 40)) + (1 * (1_200 / 60)) in
  check_int "rows across interval groups" expected (Mat.rows xs);
  check_int "one action per row" expected (Array.length ys);
  (* group harvests match what each homogeneous sub-pool produces *)
  let solo_xs, solo_ys = Harvest.collect ~actor [| with_interval 60 1 |] in
  let sd = Mat.cols xs in
  let raw = Mat.raw xs and solo_raw = Mat.raw solo_xs in
  let offset = 2 * (1_200 / 40) in
  let ok = ref true in
  for t = 0 to (1_200 / 60) - 1 do
    (* interval-60 rows sit after the interval-40 group; within the
       mixed fleet its single flow occupies one row per tick *)
    for j = 0 to sd - 1 do
      if
        Int64.bits_of_float raw.(((offset + t) * sd) + j)
        <> Int64.bits_of_float solo_raw.((t * sd) + j)
      then ok := false
    done;
    if Int64.bits_of_float ys.(offset + t) <> Int64.bits_of_float solo_ys.(t)
    then ok := false
  done;
  check_bool "mixed-pool group bit-identical to solo harvest" true !ok

let test_scalar_vs_fleet_both_kinds () =
  let actor, tree, _, _ = Lazy.force distilled_fixture in
  let cfg = agent_cfg ~duration_ms:1_200 0 in
  List.iter
    (fun (label, policy) ->
      let scalar = scalar_trajectory policy cfg in
      let fleet = fleet_trajectory policy cfg in
      check_int (label ^ ": same tick count") (List.length scalar)
        (List.length fleet);
      check_bool (label ^ ": cwnd trajectories bit-identical") true
        (scalar = fleet))
    [ ("mlp", `Mlp actor); ("tree", `Tree tree) ]

let suite =
  [
    ("fit improves on constant", `Quick, test_fit_improves_on_constant);
    ("fit deterministic", `Quick, test_fit_deterministic);
    ( "checkpoint round-trip bit-exact",
      `Quick,
      test_checkpoint_roundtrip_bit_exact );
    ( "checkpoint rejects corruption",
      `Quick,
      test_checkpoint_rejects_corruption );
    ( "output interval sound + exact (10k boxes)",
      `Quick,
      test_output_interval_sound_and_exact );
    ( "output intervals of box sets = reference (bits)",
      `Quick,
      test_output_intervals_rows_exact );
    ( "output interval skips dead leaves",
      `Quick,
      test_output_interval_dead_leaf );
    ( "output interval rejects bad box",
      `Quick,
      test_output_interval_rejects_bad_box );
    ("point box bit-exact", `Quick, test_point_box_bit_exact);
    ("fidelity vs fixture actor", `Quick, test_fidelity_fixture_actor);
    ( "certify_tree exact dominates conservative",
      `Quick,
      test_certify_tree_exact_dominates );
    ("certify_tree sound (sampled)", `Quick, test_certify_tree_sound);
    ( "predict_rows_into domain sweep",
      `Quick,
      test_predict_rows_domains_bit_identical );
    ("harvest groups mixed intervals", `Quick, test_harvest_mixed_intervals);
    ( "scalar vs fleet, both policy kinds",
      `Quick,
      test_scalar_vs_fleet_both_kinds );
    QCheck_alcotest.to_alcotest qcheck_factored_bound;
  ]
