type t = { lo : float; hi : float }

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then invalid_arg "Interval.make: nan";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let of_point x = make x x
let lo t = t.lo
let hi t = t.hi
let width t = t.hi -. t.lo
let midpoint t = 0.5 *. (t.lo +. t.hi)
let radius t = 0.5 *. (t.hi -. t.lo)
let contains t x = t.lo <= x && x <= t.hi
let subset a b = b.lo <= a.lo && a.hi <= b.hi

let intersect a b =
  let lo = Float.max a.lo b.lo and hi = Float.min a.hi b.hi in
  if lo > hi then None else Some { lo; hi }

let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
let is_point t = t.lo = t.hi
let neg t = { lo = -.t.hi; hi = -.t.lo }
let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }
let sub a b = { lo = a.lo -. b.hi; hi = a.hi -. b.lo }

(* Corner products with the zero-annihilation convention: IEEE gives
   0. *. infinity = nan, but for closed intervals a zero endpoint means
   the concrete factor can be exactly 0, whose product with any finite
   value of the other factor is 0 — so 0 is the correct bound. Without
   this, mul/scale on half-infinite operands poison both bounds with
   NaN and [make] rejects the result. *)
let bound_mul x y = if x = 0. || y = 0. then 0. else x *. y

let scale alpha t =
  if alpha = 0. then { lo = 0.; hi = 0. }
  else if alpha > 0. then { lo = alpha *. t.lo; hi = alpha *. t.hi }
  else { lo = alpha *. t.hi; hi = alpha *. t.lo }

let add_scalar c t = { lo = t.lo +. c; hi = t.hi +. c }

let mul a b =
  let p1 = bound_mul a.lo b.lo and p2 = bound_mul a.lo b.hi in
  let p3 = bound_mul a.hi b.lo and p4 = bound_mul a.hi b.hi in
  {
    lo = Float.min (Float.min p1 p2) (Float.min p3 p4);
    hi = Float.max (Float.max p1 p2) (Float.max p3 p4);
  }

let div_scalar t c =
  if c = 0. then invalid_arg "Interval.div_scalar: zero";
  scale (1. /. c) t

let monotone f t = make (f t.lo) (f t.hi)
let pow2 t = monotone Canopy_util.Mathx.pow2 t
let tanh t = monotone Float.tanh t

let leaky_relu ~slope t =
  if slope < 0. || slope > 1. then invalid_arg "Interval.leaky_relu: slope";
  monotone (fun x -> if x >= 0. then x else slope *. x) t

let overlap_fraction ~target out =
  match intersect target out with
  | None -> 0.
  | Some inter ->
      if subset out target then 1.
      else if is_point out then 1. (* point on the boundary of target *)
      else width inter /. width out

let split t n =
  if n <= 0 then invalid_arg "Interval.split: n";
  let w = width t /. float_of_int n in
  List.init n (fun i ->
      let lo = t.lo +. (float_of_int i *. w) in
      let hi = if i = n - 1 then t.hi else lo +. w in
      make lo hi)

let sample rng t = Canopy_util.Prng.uniform rng t.lo t.hi

let equal ?(eps = 1e-12) a b =
  Canopy_util.Mathx.approx_equal ~eps a.lo b.lo
  && Canopy_util.Mathx.approx_equal ~eps a.hi b.hi

let pp ppf t = Format.fprintf ppf "[%.6g, %.6g]" t.lo t.hi
