type t = float array

let create n = Array.make n 0.
let init = Array.init
let copy = Array.copy
let dim = Array.length
let fill t x = Array.fill t 0 (Array.length t) x

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length a) (Array.length b))

let add a b =
  check_dims "add" a b;
  Array.mapi (fun i x -> x +. b.(i)) a

let sub a b =
  check_dims "sub" a b;
  Array.mapi (fun i x -> x -. b.(i)) a

let mul a b =
  check_dims "mul" a b;
  Array.mapi (fun i x -> x *. b.(i)) a

let scale alpha a = Array.map (fun x -> alpha *. x) a

let axpy ~alpha ~x ~y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let add_into ~dst a b =
  check_dims "add_into" a b;
  check_dims "add_into(dst)" dst a;
  for i = 0 to Array.length a - 1 do
    dst.(i) <- a.(i) +. b.(i)
  done

let sub_into ~dst a b =
  check_dims "sub_into" a b;
  check_dims "sub_into(dst)" dst a;
  for i = 0 to Array.length a - 1 do
    dst.(i) <- a.(i) -. b.(i)
  done

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let norm_inf a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a
let sum = Array.fold_left ( +. ) 0.

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else sum a /. float_of_int n

let map = Array.map

let map_into ~dst f a =
  check_dims "map_into" dst a;
  for i = 0 to Array.length a - 1 do
    dst.(i) <- f a.(i)
  done

let concat ts = Array.concat ts
let slice t ~pos ~len = Array.sub t pos len
let max_elt a = Array.fold_left Float.max a.(0) a
let min_elt a = Array.fold_left Float.min a.(0) a

let argmax a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

let approx_equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       for i = 0 to Array.length a - 1 do
         if not (Canopy_util.Mathx.approx_equal ~eps a.(i) b.(i)) then
           ok := false
       done;
       !ok
     end

let pp ppf t =
  Format.fprintf ppf "[";
  Array.iteri
    (fun i x -> Format.fprintf ppf (if i = 0 then "%.4g" else "; %.4g") x)
    t;
  Format.fprintf ppf "]"
