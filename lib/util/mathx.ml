(* The [float] annotation makes the three comparisons float compares;
   without it they are the polymorphic compare, a C call each on boxed
   floats. The two agree on every float (NaN compares false, ±0 equal),
   so the annotation changes neither the result nor the assert. *)
let clamp ~lo ~hi (x : float) =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let lerp a b t = a +. (t *. (b -. a))

let approx_equal ?(eps = 1e-9) a b =
  let diff = Float.abs (a -. b) in
  diff <= eps || diff <= eps *. Float.max (Float.abs a) (Float.abs b)

let is_finite x = Float.is_finite x
(* [log 2.], bound once: a C external is never constant-folded, so
   writing it inside [pow2] called libm's [log] on every call. *)
let ln2 = log 2.

let log2 x = log x /. ln2
let pow2 x = Float.exp (x *. ln2)
let sign x = if x > 0. then 1. else if x < 0. then -1. else 0.

let sum = Array.fold_left ( +. ) 0.
let fsum_list = List.fold_left ( +. ) 0.
