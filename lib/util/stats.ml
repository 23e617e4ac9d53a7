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

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if not (p >= 0. && p <= 100.) then invalid_arg "Stats.percentile: p";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = percentile xs 50.

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left Float.min xs.(0) xs;
    max = Array.fold_left Float.max xs.(0) xs;
    p50 = percentile xs 50.;
    p95 = percentile xs 95.;
    p99 = percentile xs 99.;
  }
