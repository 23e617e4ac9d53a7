let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs in
    sqrt (acc /. float_of_int (n - 1))
  end

(* Typed float folds throughout — no polymorphic compare, and the
   ascending accumulation order is part of the contract: callers that
   migrated their own fold here (e.g. [Canopy.Eval.eval_coexist], over
   the per-flow delivered counts of a shared link) rely on producing
   bit-identical indices. *)
let jain_index xs =
  let n = Array.length xs in
  if n = 0 then 1.
  else begin
    let sum = Array.fold_left ( +. ) 0. xs in
    let sumsq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
    if sumsq <= 0. then 1. else sum *. sum /. (float_of_int n *. sumsq)
  end

(* The rank arithmetic of [percentile] over samples given by their order
   statistics: [nth k] is the [k]-th smallest of the [n] samples, from 0.
   The sorted array and the histogram read their two order statistics in
   their own way and interpolate here, so both give the same bits. *)
let percentile_of_order ~n ~nth p =
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if not (p >= 0. && p <= 100.) then invalid_arg "Stats.percentile: p";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then nth lo
  else begin
    let frac = rank -. float_of_int lo in
    let x = nth lo in
    x +. (frac *. (nth hi -. x))
  end

let percentile xs p =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_of_order ~n:(Array.length xs) ~nth:(Array.get sorted) p

(* The [k]-th smallest sample is the value of the first bin whose
   cumulative count passes [k]. *)
let histogram_percentile counts ~n p =
  let nth k =
    let v = ref 0 and seen = ref 0 in
    while
      !v < Array.length counts
      && begin
           seen := !seen + counts.(!v);
           !seen <= k
         end
    do
      incr v
    done;
    if !v = Array.length counts then
      invalid_arg "Stats.histogram_percentile: counts sum below n";
    float_of_int !v
  in
  percentile_of_order ~n ~nth p
