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

let mul a b =
  check_dims "mul" a b;
  Array.mapi (fun i x -> x *. b.(i)) a

let axpy ~alpha ~x ~y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let map_into ~dst f a =
  check_dims "map_into" dst a;
  for i = 0 to Array.length a - 1 do
    dst.(i) <- f a.(i)
  done

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
