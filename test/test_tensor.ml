(* Tests for canopy_tensor: vector and matrix algebra. *)

open Canopy_tensor

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let vec = Alcotest.testable Vec.pp (Vec.approx_equal ~eps:1e-9)
let mat = Alcotest.testable Mat.pp (Mat.approx_equal ~eps:1e-9)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_create_init () =
  Alcotest.check vec "zeros" [| 0.; 0.; 0. |] (Vec.create 3);
  Alcotest.check vec "init" [| 0.; 1.; 4. |]
    (Vec.init 3 (fun i -> float_of_int (i * i)))

let test_vec_arith () =
  let a = [| 1.; 2.; 3. |] and b = [| 4.; 5.; 6. |] in
  Alcotest.check vec "add" [| 5.; 7.; 9. |] (Vec.add a b);
  Alcotest.check vec "sub" [| -3.; -3.; -3. |] (Vec.sub a b);
  Alcotest.check vec "mul" [| 4.; 10.; 18. |] (Vec.mul a b);
  Alcotest.check vec "scale" [| 2.; 4.; 6. |] (Vec.scale 2. a)

let test_vec_axpy () =
  let y = [| 1.; 1. |] in
  Vec.axpy ~alpha:3. ~x:[| 2.; -1. |] ~y;
  Alcotest.check vec "axpy" [| 7.; -2. |] y

let test_vec_into () =
  let dst = Vec.create 2 in
  Vec.add_into ~dst [| 1.; 2. |] [| 3.; 4. |];
  Alcotest.check vec "add_into" [| 4.; 6. |] dst;
  Vec.sub_into ~dst [| 1.; 2. |] [| 3.; 4. |];
  Alcotest.check vec "sub_into" [| -2.; -2. |] dst;
  Vec.map_into ~dst (fun x -> x *. x) [| 3.; 4. |];
  Alcotest.check vec "map_into" [| 9.; 16. |] dst

let test_vec_dot_norm () =
  check_float "dot" 32. (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]);
  check_float "norm2" 5. (Vec.norm2 [| 3.; 4. |]);
  check_float "norm_inf" 4. (Vec.norm_inf [| 3.; -4. |]);
  check_float "sum" 6. (Vec.sum [| 1.; 2.; 3. |]);
  check_float "mean" 2. (Vec.mean [| 1.; 2.; 3. |]);
  check_float "mean empty" 0. (Vec.mean [||])

let test_vec_minmax () =
  let a = [| 3.; -1.; 7.; 2. |] in
  check_float "max" 7. (Vec.max_elt a);
  check_float "min" (-1.) (Vec.min_elt a);
  Alcotest.(check int) "argmax" 2 (Vec.argmax a)

let test_vec_concat_slice () =
  let c = Vec.concat [ [| 1. |]; [| 2.; 3. |]; [||] ] in
  Alcotest.check vec "concat" [| 1.; 2.; 3. |] c;
  Alcotest.check vec "slice" [| 2.; 3. |] (Vec.slice c ~pos:1 ~len:2)

let test_vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.add [| 1.; 2. |] [| 1.; 2.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Mat *)

let m23 = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |]

let test_mat_shape_access () =
  Alcotest.(check int) "rows" 2 (Mat.rows m23);
  Alcotest.(check int) "cols" 3 (Mat.cols m23);
  check_float "get" 6. (Mat.get m23 1 2);
  Alcotest.check vec "row" [| 4.; 5.; 6. |] (Mat.row m23 1)

let test_mat_set_copy () =
  let m = Mat.copy m23 in
  Mat.set m 0 0 42.;
  check_float "set" 42. (Mat.get m 0 0);
  check_float "original untouched" 1. (Mat.get m23 0 0)

let test_mat_transpose () =
  let t = Mat.transpose m23 in
  Alcotest.(check int) "t rows" 3 (Mat.rows t);
  check_float "t(2,1)" 6. (Mat.get t 2 1);
  Alcotest.check mat "double transpose" m23 (Mat.transpose t)

let test_mat_arith () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 10.; 20. |]; [| 30.; 40. |] |] in
  Alcotest.check mat "add"
    (Mat.of_arrays [| [| 11.; 22. |]; [| 33.; 44. |] |])
    (Mat.add a b);
  Alcotest.check mat "sub"
    (Mat.of_arrays [| [| 9.; 18. |]; [| 27.; 36. |] |])
    (Mat.sub b a);
  Alcotest.check mat "scale"
    (Mat.of_arrays [| [| 2.; 4. |]; [| 6.; 8. |] |])
    (Mat.scale 2. a);
  Alcotest.check mat "abs"
    (Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |])
    (Mat.abs (Mat.scale (-1.) a))

let test_mat_vec () =
  Alcotest.check vec "mat_vec" [| 14.; 32. |] (Mat.mat_vec m23 [| 1.; 2.; 3. |])

let test_mat_tvec () =
  Alcotest.check vec "mat_tvec" [| 9.; 12.; 15. |]
    (Mat.mat_tvec m23 [| 1.; 2. |])

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  Alcotest.check mat "matmul"
    (Mat.of_arrays [| [| 19.; 22. |]; [| 43.; 50. |] |])
    (Mat.mat_mul a b)

let test_mat_identity_mul () =
  let id = Mat.init ~rows:3 ~cols:3 (fun i j -> if i = j then 1. else 0.) in
  Alcotest.check mat "I * Mᵀ" (Mat.transpose m23)
    (Mat.mat_mul id (Mat.transpose m23))

let test_mat_mul_into () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let dst = Mat.init ~rows:2 ~cols:2 (fun _ _ -> 99.) in
  Mat.mat_mul_into ~dst a b;
  Alcotest.check mat "overwrites dst"
    (Mat.of_arrays [| [| 19.; 22. |]; [| 43.; 50. |] |])
    dst

let test_mat_mul_nt () =
  let a = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let b = Mat.of_arrays [| [| 1.; 0.; 1. |]; [| 0.; 1.; 0. |] |] in
  (* a·bᵀ computed two ways *)
  Alcotest.check mat "nt = mul with transpose"
    (Mat.mat_mul a (Mat.transpose b))
    (Mat.mat_mul_nt a b);
  let dst = Mat.create ~rows:2 ~cols:2 in
  Mat.mat_mul_nt_into ~dst a b;
  Alcotest.check mat "nt_into" (Mat.mat_mul_nt a b) dst;
  (* each row is exactly mat_vec of the other operand *)
  Alcotest.check vec "row = mat_vec" (Mat.mat_vec b (Mat.row a 1))
    (Mat.row (Mat.mat_mul_nt a b) 1)

let test_mat_mul_tn_acc () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let b = Mat.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  let dst = Mat.init ~rows:2 ~cols:2 (fun _ _ -> 1. ) in
  Mat.mat_mul_tn_acc ~dst a b;
  Alcotest.check mat "accumulates aᵀ·b"
    (Mat.add
       (Mat.init ~rows:2 ~cols:2 (fun _ _ -> 1.))
       (Mat.mat_mul (Mat.transpose a) b))
    dst

let test_mat_row_ops () =
  let m = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Mat.add_row m [| 10.; 20. |];
  Alcotest.check mat "add_row broadcasts"
    (Mat.of_arrays [| [| 11.; 22. |]; [| 13.; 24. |] |])
    m;
  let dst = [| 1.; 1. |] in
  Mat.col_sum_acc ~dst m;
  Alcotest.check vec "col_sum_acc" [| 25.; 47. |] dst;
  Mat.set_row m 0 [| -1.; -2. |];
  Alcotest.check vec "set_row" [| -1.; -2. |] (Mat.row m 0);
  let sq = Mat.create ~rows:2 ~cols:2 in
  Mat.map_into ~dst:sq (fun x -> x *. x) m;
  Alcotest.check mat "map_into" (Mat.map (fun x -> x *. x) m) sq;
  Mat.map_into ~dst:m (fun x -> -.x) m;
  Alcotest.check vec "map_into in place" [| 1.; 2. |] (Mat.row m 0)

let test_mat_pack_slice () =
  let m = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  Alcotest.check mat "of_rows" (Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |]) m;
  let c = Mat.concat_cols m (Mat.of_arrays [| [| 5. |]; [| 6. |] |]) in
  Alcotest.check mat "concat_cols"
    (Mat.of_arrays [| [| 1.; 2.; 5. |]; [| 3.; 4.; 6. |] |])
    c;
  Alcotest.check mat "cols_slice middle"
    (Mat.of_arrays [| [| 2. |]; [| 4. |] |])
    (Mat.cols_slice c ~pos:1 ~len:1);
  Alcotest.check mat "cols_slice roundtrip" m (Mat.cols_slice c ~pos:0 ~len:2)

let test_mat_kernel_dim_checks () =
  let a = Mat.create ~rows:2 ~cols:3 in
  Alcotest.check_raises "nt dims"
    (Invalid_argument "Mat.mat_mul_nt_into: dims") (fun () ->
      ignore (Mat.mat_mul_nt a (Mat.create ~rows:2 ~cols:4)));
  Alcotest.check_raises "tn dims" (Invalid_argument "Mat.mat_mul_tn_acc: dims")
    (fun () ->
      Mat.mat_mul_tn_acc ~dst:(Mat.create ~rows:3 ~cols:3) a
        (Mat.create ~rows:3 ~cols:3));
  Alcotest.check_raises "add_row dims" (Invalid_argument "Mat.add_row: dims")
    (fun () -> Mat.add_row a [| 1. |]);
  Alcotest.check_raises "concat rows"
    (Invalid_argument "Mat.concat_cols: rows") (fun () ->
      ignore (Mat.concat_cols a (Mat.create ~rows:3 ~cols:1)))

let test_mat_outer_acc () =
  let m = Mat.create ~rows:2 ~cols:3 in
  Mat.outer_acc m [| 1.; 2. |] [| 3.; 4.; 5. |];
  Mat.outer_acc m [| 1.; 0. |] [| 1.; 1.; 1. |];
  Alcotest.check mat "outer accumulated"
    (Mat.of_arrays [| [| 4.; 5.; 6. |]; [| 6.; 8.; 10. |] |])
    m

let test_mat_axpy_frobenius () =
  let x = Mat.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  let y = Mat.create ~rows:2 ~cols:2 in
  Mat.axpy ~alpha:3. ~x ~y;
  check_float "frobenius" (3. *. sqrt 2.) (Mat.frobenius y)

let test_mat_raw_shares () =
  let m = Mat.create ~rows:2 ~cols:2 in
  (Mat.raw m).(3) <- 9.;
  check_float "raw shares storage" 9. (Mat.get m 1 1)

let test_mat_errors () =
  Alcotest.check_raises "ragged" (Invalid_argument "Mat.of_arrays: ragged")
    (fun () -> ignore (Mat.of_arrays [| [| 1. |]; [| 1.; 2. |] |]));
  Alcotest.check_raises "mat_vec dims" (Invalid_argument "Mat.mat_vec: dims")
    (fun () -> ignore (Mat.mat_vec m23 [| 1. |]))

(* ------------------------------------------------------------------ *)
(* Property-based: algebraic identities *)

let gen_mat rows cols =
  QCheck.Gen.(
    array_size (return (rows * cols)) (float_range (-10.) 10.)
    |> map (fun data ->
           Mat.init ~rows ~cols (fun i j -> data.((i * cols) + j))))

let gen_vecn n = QCheck.Gen.(array_size (return n) (float_range (-10.) 10.))

let qcheck =
  let open QCheck in
  [
    Test.make ~name:"adjoint identity (Ax)·y = x·(Aᵀy)" ~count:100
      (make
         Gen.(
           let* m = gen_mat 3 4 in
           let* x = gen_vecn 4 in
           let* y = gen_vecn 3 in
           return (m, x, y)))
      (fun (m, x, y) ->
        Canopy_util.Mathx.approx_equal ~eps:1e-6
          (Vec.dot (Mat.mat_vec m x) y)
          (Vec.dot x (Mat.mat_tvec m y)));
    Test.make ~name:"matmul consistent with mat_vec" ~count:100
      (make
         Gen.(
           let* a = gen_mat 3 2 in
           let* b = gen_mat 2 4 in
           let* x = gen_vecn 4 in
           return (a, b, x)))
      (fun (a, b, x) ->
        Vec.approx_equal ~eps:1e-6
          (Mat.mat_vec (Mat.mat_mul a b) x)
          (Mat.mat_vec a (Mat.mat_vec b x)));
    Test.make ~name:"|M| dominates M elementwise" ~count:100
      (make (gen_mat 4 4))
      (fun m ->
        let a = Mat.abs m in
        let ok = ref true in
        for i = 0 to 3 do
          for j = 0 to 3 do
            if Mat.get a i j < Float.abs (Mat.get m i j) -. 1e-12 then
              ok := false
          done
        done;
        !ok);
    Test.make ~name:"vec add commutes" ~count:100
      (make Gen.(pair (gen_vecn 5) (gen_vecn 5)))
      (fun (a, b) -> Vec.approx_equal (Vec.add a b) (Vec.add b a));
    Test.make ~name:"mat_mul_nt a b = a · bᵀ" ~count:100
      (make Gen.(pair (gen_mat 3 5) (gen_mat 4 5)))
      (fun (a, b) ->
        Mat.approx_equal ~eps:1e-9 (Mat.mat_mul_nt a b)
          (Mat.mat_mul a (Mat.transpose b)));
    Test.make ~name:"mat_mul_tn_acc dst a b = dst + aᵀ · b" ~count:100
      (make
         Gen.(
           let* dst = gen_mat 4 3 in
           let* a = gen_mat 5 4 in
           let* b = gen_mat 5 3 in
           return (dst, a, b)))
      (fun (dst0, a, b) ->
        let dst = Mat.copy dst0 in
        Mat.mat_mul_tn_acc ~dst a b;
        Mat.approx_equal ~eps:1e-6 dst
          (Mat.add dst0 (Mat.mat_mul (Mat.transpose a) b)));
    Test.make ~name:"col_sum_acc = fold of rows" ~count:100
      (make (gen_mat 6 3))
      (fun m ->
        let dst = Vec.create 3 in
        Mat.col_sum_acc ~dst m;
        let expect = Vec.create 3 in
        for i = 0 to 5 do
          Vec.axpy ~alpha:1. ~x:(Mat.row m i) ~y:expect
        done;
        Vec.approx_equal ~eps:1e-9 dst expect);
  ]

(* ------------------------------------------------------------------ *)
(* AVX2 kernels against the OCaml ones, bit for bit *)

(* Entries mixing ordinary values with ±0, subnormals, ±∞ and NaN. *)
let gen_entry =
  QCheck.Gen.(
    frequency
      [
        (12, float_range (-4.) 4.);
        (1, oneofl [ 0.; -0. ]);
        (1, oneofl [ 4.9e-324; -2.2e-310; 1e-308 ]);
        (1, oneofl [ Float.infinity; Float.neg_infinity; Float.nan ]);
      ])

let gen_entries rows cols =
  QCheck.Gen.(
    array_size (return (rows * cols)) gen_entry
    |> map (fun d -> Mat.init ~rows ~cols (fun i j -> d.((i * cols) + j))))

(* 4-aligned cut points of [0, rows), as the dispatchers chunk. *)
let gen_cuts rows =
  QCheck.Gen.(
    list_size (int_range 0 3) (int_range 0 (rows / 4))
    |> map (fun cs ->
           List.sort_uniq Int.compare (0 :: rows :: List.map (fun c -> 4 * c) cs)))

let run_chunked cuts f =
  let rec go = function
    | lo :: (hi :: _ as rest) ->
        f ~lo ~hi;
        go rest
    | _ -> ()
  in
  go cuts

let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y)

let mat_bits_equal x y =
  let a = Mat.raw x and b = Mat.raw y in
  Array.length a = Array.length b
  && Array.for_all2 same_bits a b

(* rows 1..24 covers every rows mod 4, on both sides of the dispatchers'
   12-row nt rule; columns 1..40 every columns mod 8; inner sizes 1..70. *)
let gen_shape =
  QCheck.Gen.(triple (int_range 1 24) (int_range 1 70) (int_range 1 40))

let print_shape (m, k, n, _) = Printf.sprintf "%dx%dx%d" m k n

let avx2 = String.equal (Mat.gemm_kernel ()) "avx2"

let kernel_oracle ~name ~gen run =
  QCheck.Test.make ~name ~count:300
    (QCheck.make ~print:print_shape gen)
    (fun case -> (not avx2) || run case)

let qcheck_kernels =
  let open QCheck.Gen in
  [
    kernel_oracle ~name:"avx2 nt = ocaml nt (bits, bias and none)"
      ~gen:
        (let* m, k, n = gen_shape in
         let* a = gen_entries m k and* b = gen_entries n k in
         let* bias = option (array_size (return n) gen_entry) in
         let* cuts = gen_cuts m in
         return (m, k, n, (a, b, bias, cuts)))
      (fun (m, _, n, (a, b, bias, cuts)) ->
        let want = Mat.create ~rows:m ~cols:n in
        let got = Mat.create ~rows:m ~cols:n in
        Mat.fill got 7.;
        Mat.Kernel.nt_ocaml ~dst:want a b bias ~lo:0 ~hi:m;
        run_chunked cuts (Mat.Kernel.nt_avx2 ~dst:got a b bias);
        mat_bits_equal want got);
    kernel_oracle ~name:"avx2 nn = ocaml nn (bits)"
      ~gen:
        (let* m, k, n = gen_shape in
         let* a = gen_entries m k and* b = gen_entries k n in
         let* cuts = gen_cuts m in
         return (m, k, n, (a, b, cuts)))
      (fun (m, _, n, (a, b, cuts)) ->
        let want = Mat.create ~rows:m ~cols:n in
        let got = Mat.create ~rows:m ~cols:n in
        Mat.fill got 7.;
        Mat.Kernel.nn_ocaml ~dst:want a b ~lo:0 ~hi:m;
        run_chunked cuts (Mat.Kernel.nn_avx2 ~dst:got a b);
        mat_bits_equal want got);
    kernel_oracle ~name:"avx2 tn = ocaml tn (bits, dst with -0 and inf)"
      ~gen:
        (let* m, k, n = gen_shape in
         (* [a] is samples × m, so the output rows are m. *)
         let* a = gen_entries k m and* b = gen_entries k n in
         let* dst =
           array_size
             (return (m * n))
             (frequency
                [
                  (3, gen_entry);
                  (1, oneofl [ -0.; Float.infinity; Float.neg_infinity ]);
                ])
         in
         let* cuts = gen_cuts m in
         (* Half the cases sum a sample range, as one shard of a
            full-batch backward: often a tail of 1-3 rows past the
            range's 4-row groups, with zeros and -0s in [a] there,
            where the kernels skip. *)
         let* samples =
           option
             (let* klo = int_range 0 (k - 1) in
              let* len =
                frequency
                  [ (1, int_range 1 (k - klo)); (1, int_range 1 (min 3 (k - klo))) ]
              in
              return (klo, klo + len))
         in
         let* zeros = list_size (int_range 0 6) (pair (int_range 0 3) (int_range 0 (m - 1))) in
         let* negative = bool in
         return (m, k, n, (a, b, dst, cuts, samples, zeros, negative)))
      (fun (m, _, n, (a, b, dst, cuts, samples, zeros, negative)) ->
        Option.iter
          (fun (klo, khi) ->
            let k4 = khi - ((khi - klo) land 3) in
            List.iter
              (fun (r, i) ->
                if k4 + r < khi then
                  Mat.set a (k4 + r) i (if negative then -0. else 0.))
              zeros)
          samples;
        let want = Mat.init ~rows:m ~cols:n (fun i j -> dst.((i * n) + j)) in
        let got = Mat.copy want and copied = Mat.copy want in
        Mat.Kernel.tn_ocaml ?samples ~dst:want a b ~lo:0 ~hi:m;
        run_chunked cuts (Mat.Kernel.tn_avx2 ?samples ~dst:got a b);
        (* A range sums exactly as a copy of its rows does. *)
        (match samples with
        | None -> Mat.Kernel.tn_ocaml ~dst:copied a b ~lo:0 ~hi:m
        | Some (lo, hi) ->
            Mat.Kernel.tn_ocaml ~dst:copied (Mat.sub_rows a ~lo ~hi)
              (Mat.sub_rows b ~lo ~hi) ~lo:0 ~hi:m);
        mat_bits_equal want got && mat_bits_equal want copied);
  ]

let test_kernel_checks () =
  let a = Mat.create ~rows:5 ~cols:3 and b = Mat.create ~rows:2 ~cols:3 in
  let dst = Mat.create ~rows:5 ~cols:2 in
  Alcotest.check_raises "unaligned lo" (Invalid_argument "Mat.Kernel.nt_ocaml: range")
    (fun () -> Mat.Kernel.nt_ocaml ~dst a b None ~lo:1 ~hi:5);
  Alcotest.check_raises "hi past rows" (Invalid_argument "Mat.Kernel.nn_ocaml: range")
    (fun () ->
      Mat.Kernel.nn_ocaml ~dst:(Mat.create ~rows:5 ~cols:2) a
        (Mat.create ~rows:3 ~cols:2) ~lo:0 ~hi:6);
  Alcotest.check_raises "bias length" (Invalid_argument "Mat.Kernel.nt_ocaml: dims")
    (fun () -> Mat.Kernel.nt_ocaml ~dst a b (Some [| 1. |]) ~lo:0 ~hi:5);
  Alcotest.(check string)
    "gemm_kernel names the path"
    (if avx2 then "avx2" else "ocaml")
    (Mat.gemm_kernel ());
  if not avx2 then
    Alcotest.check_raises "no avx2" (Invalid_argument "Mat.Kernel.tn_avx2: no AVX2")
      (fun () -> Mat.Kernel.tn_avx2 ~dst:(Mat.create ~rows:3 ~cols:2) a
          (Mat.create ~rows:5 ~cols:2) ~lo:0 ~hi:3)

(* The bit-identity of the AVX2 kernels rests on every product being
   rounded before its add: no flag or construct may let the C compiler
   fuse them, or reorder sums. Comments are dropped before the search,
   so the files may name what they forbid. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [rel] in the nearest directory above the working one that has it: the
   repo root, or dune's sandbox copy of it under [dune runtest]. *)
let repo_file rel =
  let rec up dir =
    let path = Filename.concat dir rel in
    if Sys.file_exists path then path
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then Alcotest.failf "%s not found" rel
      else up parent
  in
  up (Sys.getcwd ())

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    i + n <= h && (String.equal (String.sub hay i n) needle || go (i + 1))
  in
  go 0

(* Drops [;] line comments (dune) or [/* */] and [//] comments (C). *)
let strip_comments ~dune src =
  let b = Buffer.create (String.length src) in
  let n = String.length src in
  let rec code i =
    if i >= n then ()
    else if dune && src.[i] = ';' then line i
    else if (not dune) && i + 1 < n && src.[i] = '/' && src.[i + 1] = '/' then
      line i
    else if (not dune) && i + 1 < n && src.[i] = '/' && src.[i + 1] = '*' then
      block (i + 2)
    else begin
      Buffer.add_char b src.[i];
      code (i + 1)
    end
  and line i = if i >= n || src.[i] = '\n' then code i else line (i + 1)
  and block i =
    if i + 1 >= n then ()
    else if src.[i] = '*' && src.[i + 1] = '/' then code (i + 2)
    else block (i + 1)
  in
  code 0;
  Buffer.contents b

let test_no_float_contraction () =
  let dune =
    strip_comments ~dune:true (read_file (repo_file "lib/tensor/dune"))
  in
  let stubs =
    strip_comments ~dune:false (read_file (repo_file "lib/tensor/gemm_stubs.c"))
  in
  let fail fmt = Printf.ksprintf (fun msg -> Alcotest.fail msg) fmt in
  if not (contains dune "-ffp-contract=off") then
    fail "lib/tensor/dune: C flags lack -ffp-contract=off";
  List.iter
    (fun flag ->
      if contains dune flag then fail "lib/tensor/dune: C flags contain %s" flag)
    [ "-mfma"; "-march=native"; "-ffast-math"; "-Ofast";
      "-funsafe-math-optimizations" ];
  List.iter
    (fun construct ->
      if contains stubs construct then
        fail "lib/tensor/gemm_stubs.c uses %s" construct)
    [ "fmadd"; "fmsub"; "#pragma GCC optimize" ]

let suite =
  [
    ("vec create/init", `Quick, test_vec_create_init);
    ("vec arithmetic", `Quick, test_vec_arith);
    ("vec axpy", `Quick, test_vec_axpy);
    ("vec _into variants", `Quick, test_vec_into);
    ("vec dot/norms", `Quick, test_vec_dot_norm);
    ("vec min/max/argmax", `Quick, test_vec_minmax);
    ("vec concat/slice", `Quick, test_vec_concat_slice);
    ("vec dimension mismatch", `Quick, test_vec_dim_mismatch);
    ("mat shape/access", `Quick, test_mat_shape_access);
    ("mat set/copy", `Quick, test_mat_set_copy);
    ("mat transpose", `Quick, test_mat_transpose);
    ("mat arithmetic", `Quick, test_mat_arith);
    ("mat mat_vec", `Quick, test_mat_vec);
    ("mat mat_tvec", `Quick, test_mat_tvec);
    ("mat mat_mul", `Quick, test_mat_mul);
    ("mat identity mul", `Quick, test_mat_identity_mul);
    ("mat mat_mul_into", `Quick, test_mat_mul_into);
    ("mat mat_mul_nt", `Quick, test_mat_mul_nt);
    ("mat mat_mul_tn_acc", `Quick, test_mat_mul_tn_acc);
    ("mat row ops", `Quick, test_mat_row_ops);
    ("mat pack/concat/slice", `Quick, test_mat_pack_slice);
    ("mat kernel dim checks", `Quick, test_mat_kernel_dim_checks);
    ("mat outer_acc", `Quick, test_mat_outer_acc);
    ("mat axpy/frobenius", `Quick, test_mat_axpy_frobenius);
    ("mat raw shares storage", `Quick, test_mat_raw_shares);
    ("mat errors", `Quick, test_mat_errors);
    ("mat kernel range checks", `Quick, test_kernel_checks);
    ("mat no float contraction in C kernels", `Quick, test_no_float_contraction);
  ]
  @ List.map QCheck_alcotest.to_alcotest (qcheck @ qcheck_kernels)
