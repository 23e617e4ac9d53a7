module Mat = Canopy_tensor.Mat

type config = { max_leaves : int; min_samples_leaf : int }

let default_config = { max_leaves = 64; min_samples_leaf = 32 }

(* No split deeper than [max_depth]; at most [candidate_splits]
   thresholds tried per feature; Tikhonov strength [ridge] for the leaf
   models. *)
let max_depth = 8
let candidate_splits = 32
let ridge = 1e-6

(* Mutable build-time node: a frontier leaf owns the segment
   [seg_lo, seg_hi) of the global sample-index array until it is split. *)
type bnode = {
  seg_lo : int;
  seg_hi : int;
  bdepth : int;
  mutable split : (int * float * bnode * bnode) option;
}

type candidate = {
  gain : float;
  cfeature : int;
  cthreshold : float;
  target : bnode;
}

let sse ~sum ~sum2 ~n =
  if n = 0 then 0. else sum2 -. (sum *. sum /. float_of_int n)

(* Best variance-reduction split of a segment, or None when no candidate
   respects the depth / min-samples constraints or improves on the parent.
   Deterministic: features scanned in order, ties keep the first winner. *)
let best_split cfg ~raw ~d ~ys ~idx node =
  let lo = node.seg_lo and hi = node.seg_hi in
  let n = hi - lo in
  if node.bdepth >= max_depth || n < 2 * cfg.min_samples_leaf then None
  else begin
    let vals = Array.make n (0., 0., 0) in
    let pre_sum = Array.make (n + 1) 0. and pre_sum2 = Array.make (n + 1) 0. in
    let best = ref None in
    for f = 0 to d - 1 do
      for k = 0 to n - 1 do
        let s = idx.(lo + k) in
        vals.(k) <- (raw.((s * d) + f), ys.(s), s)
      done;
      (* sample index as final key makes the order (hence the float prefix
         sums and tie-breaking) independent of the incoming permutation *)
      Array.sort
        (fun (v1, _, s1) (v2, _, s2) ->
          let c = Float.compare v1 v2 in
          if c <> 0 then c else Int.compare s1 s2)
        vals;
      for k = 0 to n - 1 do
        let _, y, _ = vals.(k) in
        pre_sum.(k + 1) <- pre_sum.(k) +. y;
        pre_sum2.(k + 1) <- pre_sum2.(k) +. (y *. y)
      done;
      let total = sse ~sum:pre_sum.(n) ~sum2:pre_sum2.(n) ~n in
      (* positions where the sorted feature value changes and both sides
         keep min_samples_leaf *)
      let positions = ref [] in
      let n_positions = ref 0 in
      for k = n - cfg.min_samples_leaf downto cfg.min_samples_leaf do
        let v0, _, _ = vals.(k - 1) and v1, _, _ = vals.(k) in
        if v0 < v1 then begin
          positions := k :: !positions;
          incr n_positions
        end
      done;
      let step =
        if !n_positions <= candidate_splits then 1
        else (!n_positions + candidate_splits - 1) / candidate_splits
      in
      List.iteri
        (fun pi k ->
          if pi mod step = 0 then begin
            let left_sse = sse ~sum:pre_sum.(k) ~sum2:pre_sum2.(k) ~n:k in
            let right_sse =
              sse
                ~sum:(pre_sum.(n) -. pre_sum.(k))
                ~sum2:(pre_sum2.(n) -. pre_sum2.(k))
                ~n:(n - k)
            in
            let gain = total -. left_sse -. right_sse in
            let improves =
              match !best with None -> gain > 0. | Some b -> gain > b.gain
            in
            if improves then begin
              let v0, _, _ = vals.(k - 1) and v1, _, _ = vals.(k) in
              let thr = v0 +. ((v1 -. v0) /. 2.) in
              (* guard against midpoints that round onto v0: route with the
                 strict rule x < thr, so thr must exceed v0 *)
              let thr = if thr > v0 then thr else v1 in
              best :=
                Some { gain; cfeature = f; cthreshold = thr; target = node }
            end
          end)
        !positions
    done;
    !best
  end

(* Stable in-place partition of idx[lo,hi) around x.(f) < thr. *)
let partition ~raw ~d ~idx ~lo ~hi ~f ~thr =
  let buf = Array.sub idx lo (hi - lo) in
  let w = ref lo in
  Array.iter
    (fun s -> if raw.((s * d) + f) < thr then (idx.(!w) <- s; incr w))
    buf;
  let mid = !w in
  Array.iter
    (fun s -> if not (raw.((s * d) + f) < thr) then (idx.(!w) <- s; incr w))
    buf;
  mid

(* Gaussian elimination with partial pivoting; true on success. *)
let solve_inplace a b m =
  let ok = ref true in
  (try
     for col = 0 to m - 1 do
       let piv = ref col in
       for r = col + 1 to m - 1 do
         if Float.abs a.(r).(col) > Float.abs a.(!piv).(col) then piv := r
       done;
       if Float.abs a.(!piv).(col) < 1e-12 then raise Exit;
       if !piv <> col then begin
         let tmp = a.(col) in
         a.(col) <- a.(!piv);
         a.(!piv) <- tmp;
         let tb = b.(col) in
         b.(col) <- b.(!piv);
         b.(!piv) <- tb
       end;
       for r = col + 1 to m - 1 do
         let factor = a.(r).(col) /. a.(col).(col) in
         if factor <> 0. then begin
           for c = col to m - 1 do
             a.(r).(c) <- a.(r).(c) -. (factor *. a.(col).(c))
           done;
           b.(r) <- b.(r) -. (factor *. b.(col))
         end
       done
     done;
     for col = m - 1 downto 0 do
       let acc = ref b.(col) in
       for c = col + 1 to m - 1 do
         acc := !acc -. (a.(col).(c) *. b.(c))
       done;
       b.(col) <- !acc /. a.(col).(col);
       if not (Float.is_finite b.(col)) then raise Exit
     done
   with Exit -> ok := false);
  !ok

(* Ridge least-squares affine model for one leaf segment; falls back to the
   constant mean when the normal equations are degenerate. *)
let fit_leaf ~raw ~d ~ys ~idx ~lo ~hi ~coef ~bias ~leaf_id =
  let m = d + 1 in
  let n = hi - lo in
  let a = Array.make_matrix m m 0. and b = Array.make m 0. in
  for k = lo to hi - 1 do
    let s = idx.(k) in
    let base = s * d in
    let y = ys.(s) in
    for i = 0 to d - 1 do
      let xi = raw.(base + i) in
      for j = i to d - 1 do
        a.(i).(j) <- a.(i).(j) +. (xi *. raw.(base + j))
      done;
      a.(i).(d) <- a.(i).(d) +. xi;
      b.(i) <- b.(i) +. (xi *. y)
    done;
    a.(d).(d) <- a.(d).(d) +. 1.;
    b.(d) <- b.(d) +. y
  done;
  for i = 0 to m - 1 do
    for j = 0 to i - 1 do
      a.(i).(j) <- a.(j).(i)
    done;
    a.(i).(i) <- a.(i).(i) +. (ridge *. float_of_int n)
  done;
  let mean =
    if n = 0 then 0.
    else begin
      let acc = ref 0. in
      for k = lo to hi - 1 do
        acc := !acc +. ys.(idx.(k))
      done;
      !acc /. float_of_int n
    end
  in
  if solve_inplace a b m then begin
    for j = 0 to d - 1 do
      coef.((leaf_id * d) + j) <- b.(j)
    done;
    bias.(leaf_id) <- b.(d)
  end
  else bias.(leaf_id) <- mean

let fit ?(config = default_config) ~xs ~ys () =
  let cfg = config in
  let n = Mat.rows xs and d = Mat.cols xs in
  if n = 0 then invalid_arg "Fit.fit: no samples";
  if Array.length ys <> n then invalid_arg "Fit.fit: xs/ys length mismatch";
  if cfg.max_leaves < 1 || cfg.min_samples_leaf < 1 then
    invalid_arg "Fit.fit: bad config";
  let raw = Mat.raw xs in
  let idx = Array.init n Fun.id in
  let root = { seg_lo = 0; seg_hi = n; bdepth = 0; split = None } in
  let frontier = ref [] in
  (match best_split cfg ~raw ~d ~ys ~idx root with
  | Some c -> frontier := [ c ]
  | None -> ());
  let leaves = ref 1 in
  while !leaves < cfg.max_leaves && !frontier <> [] do
    (* strict > keeps the earliest-enqueued candidate on ties *)
    let best =
      List.fold_left
        (fun acc c -> if c.gain > acc.gain then c else acc)
        (List.hd !frontier) (List.tl !frontier)
    in
    frontier := List.filter (fun c -> c != best) !frontier;
    let node = best.target in
    let mid =
      partition ~raw ~d ~idx ~lo:node.seg_lo ~hi:node.seg_hi ~f:best.cfeature
        ~thr:best.cthreshold
    in
    let l =
      { seg_lo = node.seg_lo; seg_hi = mid; bdepth = node.bdepth + 1;
        split = None }
    and r =
      { seg_lo = mid; seg_hi = node.seg_hi; bdepth = node.bdepth + 1;
        split = None }
    in
    node.split <- Some (best.cfeature, best.cthreshold, l, r);
    incr leaves;
    List.iter
      (fun child ->
        match best_split cfg ~raw ~d ~ys ~idx child with
        | Some c -> frontier := !frontier @ [ c ]
        | None -> ())
      [ l; r ]
  done;
  (* flatten to arrays in preorder (children strictly after parents) *)
  let count_nodes = ref 0 in
  let rec count nd =
    incr count_nodes;
    match nd.split with
    | Some (_, _, l, r) ->
        count l;
        count r
    | None -> ()
  in
  count root;
  let nn = !count_nodes in
  let nl = !leaves in
  let feature = Array.make nn (-1)
  and threshold = Array.make nn 0.
  and left = Array.make nn 0
  and right = Array.make nn 0
  and leaf = Array.make nn (-1) in
  let coef = Array.make (nl * d) 0. and bias = Array.make nl 0. in
  let next_node = ref 0 and next_leaf = ref 0 in
  let rec emit nd =
    let i = !next_node in
    incr next_node;
    match nd.split with
    | Some (f, thr, l, r) ->
        feature.(i) <- f;
        threshold.(i) <- thr;
        left.(i) <- !next_node;
        emit l;
        right.(i) <- !next_node;
        emit r
    | None ->
        let li = !next_leaf in
        incr next_leaf;
        leaf.(i) <- li;
        fit_leaf ~raw ~d ~ys ~idx ~lo:nd.seg_lo ~hi:nd.seg_hi ~coef ~bias
          ~leaf_id:li
  in
  emit root;
  Tree.build ~in_dim:d ~feature ~threshold ~left ~right ~leaf ~coef ~bias

let mse tree ~xs ~ys =
  let n = Mat.rows xs and d = Mat.cols xs in
  if Array.length ys <> n then invalid_arg "Fit.mse: xs/ys length mismatch";
  if n = 0 then 0.
  else begin
    let raw = Mat.raw xs in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let p = Tree.predict_into tree ~src:raw ~src_off:(i * d) in
      let e = p -. ys.(i) in
      acc := !acc +. (e *. e)
    done;
    !acc /. float_of_int n
  end
