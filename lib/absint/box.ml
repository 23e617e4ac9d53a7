open Canopy_tensor

type t = { c : Vec.t; e : Vec.t }

let make ~center ~dev =
  if Vec.dim center <> Vec.dim dev then invalid_arg "Box.make: dims";
  Array.iter
    (fun d ->
      if d < 0. || Float.is_nan d then invalid_arg "Box.make: deviation")
    dev;
  { c = Vec.copy center; e = Vec.copy dev }

let of_point v = { c = Vec.copy v; e = Vec.create (Vec.dim v) }

let of_intervals ivs =
  {
    c = Array.map Interval.midpoint ivs;
    e = Array.map Interval.radius ivs;
  }

let to_intervals t =
  Array.mapi (fun i c -> Interval.make (c -. t.e.(i)) (c +. t.e.(i))) t.c

let dim t = Vec.dim t.c
let center t = Vec.copy t.c
let dev t = Vec.copy t.e

let dimension t i =
  Interval.make (t.c.(i) -. t.e.(i)) (t.c.(i) +. t.e.(i))

let with_dimension t i iv =
  let c = Vec.copy t.c and e = Vec.copy t.e in
  c.(i) <- Interval.midpoint iv;
  e.(i) <- Interval.radius iv;
  { c; e }

let affine m b box =
  if Mat.cols m <> dim box then invalid_arg "Box.affine: dims";
  let c = Mat.mat_vec m box.c in
  Vec.axpy ~alpha:1. ~x:b ~y:c;
  let e = Mat.mat_vec (Mat.abs m) box.e in
  { c; e }

let diag_affine ~scale ~shift box =
  if Vec.dim scale <> dim box || Vec.dim shift <> dim box then
    invalid_arg "Box.diag_affine: dims";
  {
    c = Vec.init (dim box) (fun i -> (scale.(i) *. box.c.(i)) +. shift.(i));
    e = Vec.init (dim box) (fun i -> Float.abs scale.(i) *. box.e.(i));
  }

(* Appendix A endpoint formula: for a non-decreasing f, the image of
   [c-e, c+e] is [f(c-e), f(c+e)], re-centered. *)
let map_monotone f box =
  let n = dim box in
  let c = Vec.create n and e = Vec.create n in
  for i = 0 to n - 1 do
    let lo = f (box.c.(i) -. box.e.(i)) and hi = f (box.c.(i) +. box.e.(i)) in
    c.(i) <- 0.5 *. (hi +. lo);
    e.(i) <- 0.5 *. (hi -. lo)
  done;
  { c; e }

let sample rng t =
  Vec.init (dim t) (fun i ->
      Canopy_util.Prng.uniform rng (t.c.(i) -. t.e.(i)) (t.c.(i) +. t.e.(i)))

let equal ?(eps = 1e-12) a b =
  dim a = dim b
  && Vec.approx_equal ~eps a.c b.c
  && Vec.approx_equal ~eps a.e b.e

let pp ppf t =
  Format.fprintf ppf "@[<h>box{";
  for i = 0 to dim t - 1 do
    if i > 0 then Format.fprintf ppf ", ";
    Interval.pp ppf (dimension t i)
  done;
  Format.fprintf ppf "}@]"

type set = {
  rows : int;
  point : Vec.t;
  vary : int array;
  centers : float array;
  radii : float array;
}

let check_set ~what ~dim s =
  let n = Array.length s.vary in
  let ascending = ref true in
  for m = 0 to n - 1 do
    let j = s.vary.(m) in
    if j < 0 || j >= dim || (m > 0 && j <= s.vary.(m - 1)) then
      ascending := false
  done;
  if
    not
      (s.rows >= 1 && Vec.dim s.point = dim && !ascending
      && Array.length s.centers = s.rows * n
      && Array.length s.radii = s.rows * n)
  then invalid_arg (what ^ ": shape");
  for i = 0 to Array.length s.radii - 1 do
    if not (s.radii.(i) >= 0.) then invalid_arg (what ^ ": deviation")
  done

let set_of_boxes boxes =
  let rows = Array.length boxes in
  if rows = 0 then invalid_arg "Box.set_of_boxes: empty";
  let n = dim boxes.(0) in
  let centers = Array.make (rows * n) 0. and radii = Array.make (rows * n) 0. in
  Array.iteri
    (fun k b ->
      if dim b <> n then invalid_arg "Box.set_of_boxes: dims";
      Array.blit b.c 0 centers (k * n) n;
      Array.blit b.e 0 radii (k * n) n)
    boxes;
  { rows; point = Vec.create n; vary = Array.init n Fun.id; centers; radii }

let of_set s k =
  let n = Array.length s.vary in
  let center = Vec.copy s.point and dev = Vec.create (Vec.dim s.point) in
  for m = 0 to n - 1 do
    center.(s.vary.(m)) <- s.centers.((k * n) + m);
    dev.(s.vary.(m)) <- s.radii.((k * n) + m)
  done;
  make ~center ~dev
