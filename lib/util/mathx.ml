let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let lerp a b t = a +. (t *. (b -. a))

let approx_equal ?(eps = 1e-9) a b =
  let diff = Float.abs (a -. b) in
  diff <= eps || diff <= eps *. Float.max (Float.abs a) (Float.abs b)

let is_finite x = Float.is_finite x
let log2 x = log x /. log 2.
let pow2 x = Float.exp (x *. log 2.)
let sign x = if x > 0. then 1. else if x < 0. then -1. else 0.

let sum = Array.fold_left ( +. ) 0.
let fsum_list = List.fold_left ( +. ) 0.
