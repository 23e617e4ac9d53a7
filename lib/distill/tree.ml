module Mat = Canopy_tensor.Mat
module Interval = Canopy_absint.Interval
module Pool = Canopy_util.Pool

type t = {
  in_dim : int;
  feature : int array; (* split feature per node, -1 for leaves *)
  threshold : float array; (* split threshold per node, 0. for leaves *)
  left : int array; (* child for x.(feature) < threshold *)
  right : int array; (* child for x.(feature) >= threshold *)
  leaf : int array; (* leaf-model index per node, -1 for internal *)
  coef : float array; (* n_leaves * in_dim, row-major *)
  bias : float array; (* n_leaves *)
}

let in_dim t = t.in_dim
let out_dim (_ : t) = 1
let n_nodes t = Array.length t.feature
let n_leaves t = Array.length t.bias

let validate ~in_dim ~feature ~threshold ~left ~right ~leaf ~coef ~bias =
  let n = Array.length feature in
  let l = Array.length bias in
  if in_dim <= 0 then invalid_arg "Tree.build: in_dim must be positive";
  if n = 0 then invalid_arg "Tree.build: empty node array";
  if
    Array.length threshold <> n
    || Array.length left <> n
    || Array.length right <> n
    || Array.length leaf <> n
  then invalid_arg "Tree.build: node array length mismatch";
  if Array.length coef <> l * in_dim then
    invalid_arg "Tree.build: coef length mismatch";
  let seen_leaf = Array.make (max l 1) false in
  let parents = Array.make n 0 in
  for i = 0 to n - 1 do
    if feature.(i) >= 0 then begin
      if feature.(i) >= in_dim then
        invalid_arg "Tree.build: split feature out of range";
      if Float.is_nan threshold.(i) then
        invalid_arg "Tree.build: NaN threshold";
      (* Children strictly after the parent: guarantees the compare chain
         terminates and no path returns to node 0. *)
      if left.(i) <= i || left.(i) >= n || right.(i) <= i || right.(i) >= n
      then invalid_arg "Tree.build: child index out of range";
      if leaf.(i) <> -1 then
        invalid_arg "Tree.build: internal node with leaf id";
      parents.(left.(i)) <- parents.(left.(i)) + 1;
      parents.(right.(i)) <- parents.(right.(i)) + 1
    end
    else begin
      if feature.(i) <> -1 then invalid_arg "Tree.build: bad feature marker";
      if leaf.(i) < 0 || leaf.(i) >= l then
        invalid_arg "Tree.build: leaf id out of range";
      if seen_leaf.(leaf.(i)) then invalid_arg "Tree.build: duplicate leaf id";
      seen_leaf.(leaf.(i)) <- true
    end
  done;
  for j = 0 to l - 1 do
    if not seen_leaf.(j) then invalid_arg "Tree.build: unreferenced leaf model"
  done;
  (* Exactly one parent per non-root node makes the graph a tree rooted at
     node 0: every leaf has one root path, hence one cell.  A shared child
     would sit in several cells at once, and an orphan in none. *)
  for i = 1 to n - 1 do
    if parents.(i) <> 1 then
      invalid_arg "Tree.build: node without exactly one parent"
  done

let build ~in_dim ~feature ~threshold ~left ~right ~leaf ~coef ~bias =
  validate ~in_dim ~feature ~threshold ~left ~right ~leaf ~coef ~bias;
  {
    in_dim;
    feature = Array.copy feature;
    threshold = Array.copy threshold;
    left = Array.copy left;
    right = Array.copy right;
    leaf = Array.copy leaf;
    coef = Array.copy coef;
    bias = Array.copy bias;
  }

let constant ~in_dim value =
  build ~in_dim ~feature:[| -1 |] ~threshold:[| 0. |] ~left:[| 0 |]
    ~right:[| 0 |] ~leaf:[| 0 |]
    ~coef:(Array.make in_dim 0.)
    ~bias:[| value |]

let depth t =
  let n = n_nodes t in
  let d = Array.make n 0 in
  let deepest = ref 0 in
  (* children always follow parents, so one forward pass suffices *)
  for i = 0 to n - 1 do
    if t.feature.(i) >= 0 then begin
      let c = d.(i) + 1 in
      if c > d.(t.left.(i)) then d.(t.left.(i)) <- c;
      if c > d.(t.right.(i)) then d.(t.right.(i)) <- c
    end
    else if d.(i) > !deepest then deepest := d.(i)
  done;
  !deepest

let node_of ~src ~src_off t =
  let i = ref 0 in
  while t.feature.(!i) >= 0 do
    i :=
      if src.(src_off + t.feature.(!i)) < t.threshold.(!i) then t.left.(!i)
      else t.right.(!i)
  done;
  !i

let predict_into t ~src ~src_off =
  let node = node_of ~src ~src_off t in
  let l = t.leaf.(node) in
  let base = l * t.in_dim in
  let acc = ref t.bias.(l) in
  for j = 0 to t.in_dim - 1 do
    acc := !acc +. (t.coef.(base + j) *. src.(src_off + j))
  done;
  !acc

let predict t x =
  if Array.length x <> t.in_dim then invalid_arg "Tree.predict: bad input dim";
  predict_into t ~src:x ~src_off:0

(* Routing plus one fused multiply-add per input dim: cheap enough that the
   chunk planner only parallelizes very large batches. *)
let row_flops t = (2 * t.in_dim) + depth t + 4

let predict_rows_into ~dst t x =
  if Mat.cols x <> t.in_dim then
    invalid_arg "Tree.predict_rows_into: bad input dim";
  if Mat.cols dst <> 1 || Mat.rows dst <> Mat.rows x then
    invalid_arg "Tree.predict_rows_into: bad output shape";
  let rows = Mat.rows x in
  let src = Mat.raw x in
  let out = Mat.raw dst in
  let body ~lo ~hi =
    for i = lo to hi - 1 do
      out.(i) <- predict_into t ~src ~src_off:(i * t.in_dim)
    done
  in
  match Mat.plan_chunks ~rows ~row_flops:(row_flops t) with
  | Some chunk -> Pool.parallel_for_chunks ~chunk rows body
  | None -> body ~lo:0 ~hi:rows

(* ------------------------------------------------------------------ *)
(* Interval bounds                                                     *)

(* [Float.min] and [Float.max] as comparisons: the same result for every
   pair of operands, signed zeros included (the minimum of −0 and +0 is
   −0, their maximum +0), with the stdlib's own call, which reads sign
   bits through caml_signbit, left to an operand that is NaN. *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if x = y then if x = 0. && 1. /. x < 0. then x else y
  else (* a NaN operand *) Float.min x y (* lint-ignore: float-c-call *)

let[@inline] fmax x y =
  if x > y then x
  else if y > x then y
  else if x = y then if x = 0. && 1. /. x < 0. then y else x
  else (* a NaN operand *) Float.max x y (* lint-ignore: float-c-call *)

(* Per-domain scratch arena of the bounds, DLS-owned (DESIGN §10): slots
   0 and 1 hold a set's hull corners, slots 2 and 3 its boxes' corners
   over the varying columns, slots 4 and 5 the descent's cell and slots
   6 and 7 each column's terms of the leaf being bounded. A call
   overwrites every cell before reading it, and nothing it returns
   aliases them. *)
let bounds_key : Canopy_util.Scratch.t Domain.DLS.key =
  Domain.DLS.new_key Canopy_util.Scratch.create

(* Column [j] of a box, [src_lo.(i), src_hi.(i)], against the cell
   [cell_lo.(j), cell_hi.(j)]: false when they miss, else [j]'s term of
   the leaf whose coefficients start at [base] goes to [term_lo.(j)] and
   [term_hi.(j)]. Inlined into the bound's loops, so no float is boxed;
   the bound keeps every index in range. *)
let[@inline] clip_term t ~base ~cell_lo ~cell_hi ~term_lo ~term_hi j src_lo
    src_hi i =
  let a = fmax (Array.unsafe_get src_lo i) (Array.unsafe_get cell_lo j)
  and b = fmin (Array.unsafe_get src_hi i) (Array.unsafe_get cell_hi j) in
  if not (a <= b) then false
  else begin
    let c = Array.unsafe_get t.coef (base + j) in
    if c = 0. then begin
      Array.unsafe_set term_lo j 0.;
      Array.unsafe_set term_hi j 0.
    end
    else begin
      let a = c *. a and b = c *. b in
      if a <= b then begin
        Array.unsafe_set term_lo j a;
        Array.unsafe_set term_hi j b
      end
      else begin
        Array.unsafe_set term_lo j b;
        Array.unsafe_set term_hi j a
      end
    end;
    true
  end

(* Bounds of [rows] boxes into [out_lo.(k)]/[out_hi.(k)]. Box [k] spans
   [lo.(k·n + m), hi.(k·n + m)] on varying column [vary.(m)] ([n]
   varying columns, ascending) and [hull_lo.(j), hull_hi.(j)] on every
   other column [j], where all boxes agree; on a varying column,
   [hull_lo]/[hull_hi] hold the hull of the boxes' corners.

   One depth-first descent from the root, over the hull of the boxes,
   carries the current cell in [cell_lo]/[cell_hi], closed on both sides
   (the boundary x = threshold belongs to both children: a measure-zero
   over-approximation that keeps every bound sound), tightened on the way
   down and restored on the way back.  A child is pruned as soon as its
   cell misses the hull on the split feature; cells only shrink going
   down, so no pruned subtree holds a leaf whose cell meets a box, and a
   leaf on a contradictory path is never reached.  A box's own descent
   would reach a leaf exactly when the leaf's final cell meets the box on
   every dimension (the last check on each split feature reads the final
   cell, the earlier ones follow from it, and an unsplit dimension is
   unbounded), and pruning is monotone in the box, so every leaf it would
   reach is reached here, in the same order; at each, the boxes whose
   varying columns all meet the cell are bounded and the rest skipped
   (every box meets it on a shared column, as the hull did).  With
   [~exact:false] the cell stays unconstrained and every leaf is bounded
   over every whole box.

   A box's bound of a leaf is [bias + coef . x] over box ∩ cell: each
   term's extremum is at an endpoint, accumulated in [predict_into]'s
   order, so the bound equals the float evaluation at the minimizing or
   maximizing corner; a zero coefficient contributes +0 even where
   box ∩ cell is unbounded (0 * inf would poison the bound with NaN).  A
   shared column has the same term in every box, formed once per leaf;
   only the varying ones are formed per box.  The hull folds with
   [fmin]/[fmax], which give the same bits in any leaf order, signed
   zeros included. *)
let bound ~exact t ~hull_lo ~hull_hi ~vary ~lo ~hi ~rows ~out_lo ~out_hi =
  let d = t.in_dim and n = Array.length vary in
  let arena = Domain.DLS.get bounds_key in
  let scratch slot = Canopy_util.Scratch.get arena ~slot ~len:d in
  let cell_lo = scratch 4 and cell_hi = scratch 5 in
  let term_lo = scratch 6 and term_hi = scratch 7 in
  Array.fill cell_lo 0 d neg_infinity;
  Array.fill cell_hi 0 d infinity;
  Array.fill out_lo 0 rows infinity;
  Array.fill out_hi 0 rows neg_infinity;
  let bound_leaf l =
    let base = l * d in
    (* every box meets the cell on a shared column: the hull did *)
    let m = ref 0 in
    for j = 0 to d - 1 do
      if !m < n && vary.(!m) = j then incr m
      else
        ignore
          (clip_term t ~base ~cell_lo ~cell_hi ~term_lo ~term_hi j hull_lo
             hull_hi j
            : bool)
    done;
    for k = 0 to rows - 1 do
      let row = k * n in
      let m = ref 0 in
      while
        !m < n
        && clip_term t ~base ~cell_lo ~cell_hi ~term_lo ~term_hi
             (Array.unsafe_get vary !m) lo hi (row + !m)
      do
        incr m
      done;
      if !m = n then begin
        let acc_lo = ref t.bias.(l) and acc_hi = ref t.bias.(l) in
        for j = 0 to d - 1 do
          acc_lo := !acc_lo +. Array.unsafe_get term_lo j;
          acc_hi := !acc_hi +. Array.unsafe_get term_hi j
        done;
        out_lo.(k) <- fmin out_lo.(k) !acc_lo;
        out_hi.(k) <- fmax out_hi.(k) !acc_hi
      end
    done
  in
  let meets f =
    fmax hull_lo.(f) cell_lo.(f) <= fmin hull_hi.(f) cell_hi.(f)
  in
  let rec descend i =
    let f = t.feature.(i) in
    if f < 0 then bound_leaf t.leaf.(i)
    else begin
      let thr = t.threshold.(i) in
      let saved = cell_hi.(f) in
      if thr < saved then cell_hi.(f) <- thr;
      if meets f then descend t.left.(i);
      cell_hi.(f) <- saved;
      let saved = cell_lo.(f) in
      if thr > saved then cell_lo.(f) <- thr;
      if meets f then descend t.right.(i);
      cell_lo.(f) <- saved
    end
  in
  if exact then descend 0
  else
    for l = 0 to n_leaves t - 1 do
      bound_leaf l
    done
(* some leaf is always reached by every box: the one [predict] routes
   any of its points to *)

(* A set's corners: [s − 0, s + 0] on each shared column (the bits of a
   point read as c − e, c + e with e = +0, so a −0 coordinate spans
   [−0, +0]), and [c − e, c + e] per box on each varying column, folded
   into the hull as they are formed. *)
let output_intervals ?(exact = true) t (set : Canopy_absint.Box.set) ~out_lo
    ~out_hi =
  let what = "Tree.output_intervals" in
  Canopy_absint.Box.check_set ~what ~dim:t.in_dim set;
  let rows = set.rows and vary = set.vary in
  if Array.length out_lo < rows || Array.length out_hi < rows then
    invalid_arg (what ^ ": bad output length");
  let d = t.in_dim and n = Array.length vary in
  let bad () = invalid_arg (what ^ ": bad box") in
  let arena = Domain.DLS.get bounds_key in
  let hull_lo = Canopy_util.Scratch.get arena ~slot:0 ~len:d
  and hull_hi = Canopy_util.Scratch.get arena ~slot:1 ~len:d in
  let m = ref 0 in
  for j = 0 to d - 1 do
    if !m < n && vary.(!m) = j then incr m
    else begin
      let s = set.point.(j) in
      let l = s -. 0. and h = s +. 0. in
      if not (l <= h) then bad ();
      hull_lo.(j) <- l;
      hull_hi.(j) <- h
    end
  done;
  let len = Int.max 1 (rows * n) in
  let lo = Canopy_util.Scratch.get arena ~slot:2 ~len
  and hi = Canopy_util.Scratch.get arena ~slot:3 ~len in
  for m = 0 to n - 1 do
    let j = vary.(m) in
    for k = 0 to rows - 1 do
      let i = (k * n) + m in
      let c = set.centers.(i) and e = set.radii.(i) in
      let l = c -. e and h = c +. e in
      if not (l <= h) then bad ();
      lo.(i) <- l;
      hi.(i) <- h;
      if k = 0 then begin
        hull_lo.(j) <- l;
        hull_hi.(j) <- h
      end
      else begin
        hull_lo.(j) <- fmin hull_lo.(j) l;
        hull_hi.(j) <- fmax hull_hi.(j) h
      end
    done
  done;
  bound ~exact t ~hull_lo ~hull_hi ~vary ~lo ~hi ~rows ~out_lo ~out_hi

(* One box, given by its corners: the case in which no column varies. *)
let output_interval t ~lo ~hi =
  let what = "Tree.output_interval" in
  if Array.length lo <> t.in_dim || Array.length hi <> t.in_dim then
    invalid_arg (what ^ ": bad box dim");
  for j = 0 to t.in_dim - 1 do
    if not (lo.(j) <= hi.(j)) then invalid_arg (what ^ ": bad box")
  done;
  let out_lo = [| 0. |] and out_hi = [| 0. |] in
  bound ~exact:true t ~hull_lo:lo ~hull_hi:hi ~vary:[||] ~lo:[||] ~hi:[||]
    ~rows:1 ~out_lo ~out_hi;
  Interval.make out_lo.(0) out_hi.(0)

(* ------------------------------------------------------------------ *)
(* Checkpoint format: "canopy-tree v1" (hex floats, strict parse)      *)

let magic = "canopy-tree v1"

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "in_dim %d\nnodes %d\nleaves %d\n" t.in_dim (n_nodes t)
       (n_leaves t));
  for i = 0 to n_nodes t - 1 do
    if t.feature.(i) >= 0 then
      Buffer.add_string buf
        (Printf.sprintf "split %d %h %d %d\n" t.feature.(i) t.threshold.(i)
           t.left.(i) t.right.(i))
    else Buffer.add_string buf (Printf.sprintf "leaf %d\n" t.leaf.(i))
  done;
  for l = 0 to n_leaves t - 1 do
    let base = l * t.in_dim in
    for j = 0 to t.in_dim - 1 do
      if j > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%h" t.coef.(base + j))
    done;
    Buffer.add_string buf (Printf.sprintf " %h\n" t.bias.(l))
  done;
  Buffer.contents buf

let parse_float s =
  match float_of_string_opt s with
  | Some f when not (Float.is_nan f) -> f
  | Some _ -> failwith "tree checkpoint: NaN value"
  | None -> failwith (Printf.sprintf "tree checkpoint: malformed float %S" s)

let parse_int s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> failwith (Printf.sprintf "tree checkpoint: malformed int %S" s)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let cursor = ref lines in
  let next what =
    match !cursor with
    | [] -> failwith (Printf.sprintf "tree checkpoint: missing %s" what)
    | line :: rest ->
        cursor := rest;
        line
  in
  if next "magic" <> magic then failwith "tree checkpoint: bad magic";
  let header name =
    match String.split_on_char ' ' (next name) with
    | [ key; value ] when key = name -> parse_int value
    | _ -> failwith (Printf.sprintf "tree checkpoint: expected %s header" name)
  in
  let in_dim = header "in_dim" in
  let n = header "nodes" in
  let l = header "leaves" in
  if in_dim <= 0 || n <= 0 || l <= 0 then
    failwith "tree checkpoint: non-positive dimensions";
  let feature = Array.make n (-1)
  and threshold = Array.make n 0.
  and left = Array.make n 0
  and right = Array.make n 0
  and leaf = Array.make n (-1) in
  for i = 0 to n - 1 do
    match String.split_on_char ' ' (next "node line") with
    | [ "split"; f; thr; lc; rc ] ->
        feature.(i) <- parse_int f;
        threshold.(i) <- parse_float thr;
        left.(i) <- parse_int lc;
        right.(i) <- parse_int rc
    | [ "leaf"; id ] -> leaf.(i) <- parse_int id
    | _ -> failwith "tree checkpoint: malformed node line"
  done;
  let coef = Array.make (l * in_dim) 0. and bias = Array.make l 0. in
  for li = 0 to l - 1 do
    let parts =
      String.split_on_char ' ' (next "leaf model line")
      |> List.filter (fun s -> s <> "")
    in
    if List.length parts <> in_dim + 1 then
      failwith "tree checkpoint: wrong leaf model arity";
    List.iteri
      (fun j s ->
        if j < in_dim then coef.((li * in_dim) + j) <- parse_float s
        else bias.(li) <- parse_float s)
      parts
  done;
  List.iter
    (fun line ->
      String.iter
        (fun c ->
          if not (c = ' ' || c = '\t' || c = '\r') then
            failwith "tree checkpoint: trailing garbage")
        line)
    !cursor;
  try build ~in_dim ~feature ~threshold ~left ~right ~leaf ~coef ~bias
  with Invalid_argument msg -> failwith ("tree checkpoint: " ^ msg)

let save path t = Canopy_util.Atomic_file.write path (to_string t)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
