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

(* Bounds of [rows] boxes, row [k] being [lo.(k·d + j), hi.(k·d + j)]
   over dimension [j], into [out_lo.(k)]/[out_hi.(k)].

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
   dimensions all meet the cell are bounded and the rest skipped.  With
   [~exact:false] the cell stays unconstrained and every leaf is bounded
   over every whole box.

   A box's bound of a leaf is [bias + coef . x] over box ∩ cell: each
   term's extremum is at an endpoint, accumulated in [predict_into]'s
   order, so the bound equals the float evaluation at the minimizing or
   maximizing corner; a zero coefficient contributes +0 even where
   box ∩ cell is unbounded (0 * inf would poison the bound with NaN).  A
   dimension on which every box has the same bits (a certificate's point
   dimensions) has the same term in every box, so its term is formed
   once per leaf; only the others are formed per box.  The hull folds
   with [Float.min]/[Float.max], which give the same bits in any leaf
   order, signed zeros included. *)
let bound_rows ~what ~exact t ~lo ~hi ~rows ~out_lo ~out_hi =
  let d = t.in_dim in
  if
    rows < 1
    || Array.length lo <> rows * d
    || Array.length hi <> rows * d
  then invalid_arg (what ^ ": bad box dim");
  if Array.length out_lo < rows || Array.length out_hi < rows then
    invalid_arg (what ^ ": bad output length");
  (* One pass per dimension: does some box differ from box 0 on it, and
     is every box's [lo <= hi] (NaN corners rejected)? A box that has box
     0's bits passes with box 0. A dimension no box differs on has box
     0's bits in every box, which is then their hull; the others go to
     [vary], ascending, and their hull is folded. *)
  let[@inline] same x y = x = y && (x <> 0. || 1. /. x = 1. /. y) in
  let bad () = invalid_arg (what ^ ": bad box") in
  let hull_lo = Array.sub lo 0 d and hull_hi = Array.sub hi 0 d in
  let varies = Array.make d false in
  let vary = Array.make d 0 and n_vary = ref 0 in
  for j = 0 to d - 1 do
    let l0 = lo.(j) and h0 = hi.(j) in
    if not (l0 <= h0) then bad ();
    (* no NaN in box 0, so [same] is bit equality *)
    let k = ref 1 in
    while
      !k < rows
      && same (Array.unsafe_get lo ((!k * d) + j)) l0
      && same (Array.unsafe_get hi ((!k * d) + j)) h0
    do
      incr k
    done;
    if !k < rows then begin
      varies.(j) <- true;
      vary.(!n_vary) <- j;
      incr n_vary;
      for k = !k to rows - 1 do
        let l = Array.unsafe_get lo ((k * d) + j)
        and h = Array.unsafe_get hi ((k * d) + j) in
        if not (l <= h) then bad ();
        hull_lo.(j) <- Float.min hull_lo.(j) l;
        hull_hi.(j) <- Float.max hull_hi.(j) h
      done
    end
  done;
  let n_vary = !n_vary in
  let cell_lo = Array.make d neg_infinity in
  let cell_hi = Array.make d infinity in
  Array.fill out_lo 0 rows infinity;
  Array.fill out_hi 0 rows neg_infinity;
  (* Each dimension's (low, high) term of the leaf being bounded: the
     shared ones set once per leaf, the varying ones per box. *)
  let term_lo = Array.make d 0. and term_hi = Array.make d 0. in
  (* Dimension [j] of the box at offset [row] against the cell: false
     when they miss, else its term of the leaf at [base] is set. *)
  let clip_term ~base ~row j =
    let a = Float.max lo.(row + j) cell_lo.(j)
    and b = Float.min hi.(row + j) cell_hi.(j) in
    if not (a <= b) then false
    else begin
      let c = t.coef.(base + j) in
      if c = 0. then begin
        term_lo.(j) <- 0.;
        term_hi.(j) <- 0.
      end
      else begin
        let a = c *. a and b = c *. b in
        if a <= b then begin
          term_lo.(j) <- a;
          term_hi.(j) <- b
        end
        else begin
          term_lo.(j) <- b;
          term_hi.(j) <- a
        end
      end;
      true
    end
  in
  let bound_leaf l =
    let base = l * d in
    (* every box meets the cell on a shared dimension: the hull did *)
    for j = 0 to d - 1 do
      if not varies.(j) then ignore (clip_term ~base ~row:0 j : bool)
    done;
    for k = 0 to rows - 1 do
      let row = k * d in
      let v = ref 0 in
      while !v < n_vary && clip_term ~base ~row vary.(!v) do
        incr v
      done;
      if !v = n_vary then begin
        let acc_lo = ref t.bias.(l) and acc_hi = ref t.bias.(l) in
        for j = 0 to d - 1 do
          acc_lo := !acc_lo +. term_lo.(j);
          acc_hi := !acc_hi +. term_hi.(j)
        done;
        out_lo.(k) <- Float.min out_lo.(k) !acc_lo;
        out_hi.(k) <- Float.max out_hi.(k) !acc_hi
      end
    done
  in
  let meets f =
    Float.max hull_lo.(f) cell_lo.(f) <= Float.min hull_hi.(f) cell_hi.(f)
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

let output_intervals ?(exact = true) t ~lo ~hi ~rows ~out_lo ~out_hi =
  bound_rows ~what:"Tree.output_intervals" ~exact t ~lo ~hi ~rows ~out_lo
    ~out_hi

let output_interval ?(exact = true) t ~lo ~hi =
  let out_lo = [| 0. |] and out_hi = [| 0. |] in
  bound_rows ~what:"Tree.output_interval" ~exact t ~lo ~hi ~rows:1 ~out_lo
    ~out_hi;
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
