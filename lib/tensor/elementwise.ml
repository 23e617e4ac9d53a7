(* Element-wise passes of the training step and of the certifier's
   interval transfer, over flat float arrays.

   Each pass has an OCaml loop and an AVX2 C kernel
   (elementwise_stubs.c) in which one vector lane is one cell running
   the loop's IEEE operations in the same order, so the two give the
   same bits (DESIGN §10). The C kernel runs when [avx2] holds, chosen
   once at start-up from the CPU and the float array layout, as Mat's
   GEMMs are; the OCaml loops are the path on every other host and the
   oracle the tests hold the kernels to. The loops validate lengths up
   front and then use unsafe accesses. *)

external avx2_supported : unit -> bool = "canopy_gemm_avx2_supported"
[@@noalloc]

(* The stubs read float arrays as packed doubles. *)
let avx2 =
  avx2_supported () && Obj.tag (Obj.repr [| 0. |]) = Obj.double_array_tag

external c_leaky :
  float array -> float array -> (float[@unboxed]) -> (int[@untagged]) -> unit
  = "canopy_ew_leaky_byte" "canopy_ew_leaky"
[@@noalloc]

external c_leaky_backward :
  float array ->
  float array ->
  float array ->
  (float[@unboxed]) ->
  (int[@untagged]) ->
  unit = "canopy_ew_leaky_backward_byte" "canopy_ew_leaky_backward"
[@@noalloc]

external c_interval_leaky :
  float array -> float array -> (float[@unboxed]) -> (int[@untagged]) -> unit
  = "canopy_ew_interval_leaky_byte" "canopy_ew_interval_leaky"
[@@noalloc]

external c_add : float array -> float array -> (int[@untagged]) -> unit
  = "canopy_ew_add_byte" "canopy_ew_add"
[@@noalloc]

external c_lerp :
  float array ->
  float array ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (int[@untagged]) ->
  unit = "canopy_ew_lerp_byte" "canopy_ew_lerp"
[@@noalloc]

external c_adam :
  float array ->
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "canopy_ew_adam_byte" "canopy_ew_adam"
[@@noalloc]

external c_col_sum :
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "canopy_ew_col_sum_byte" "canopy_ew_col_sum"
[@@noalloc]

external c_bn_stats :
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  (float[@unboxed]) ->
  unit = "canopy_ew_bn_stats_byte" "canopy_ew_bn_stats"
[@@noalloc]

external c_bn_normalize :
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "canopy_ew_bn_normalize_byte" "canopy_ew_bn_normalize"
[@@noalloc]

external c_bn_backward_sums :
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "canopy_ew_bn_backward_sums_byte" "canopy_ew_bn_backward_sums"
[@@noalloc]

external c_bn_backward_dx :
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (float[@unboxed]) ->
  unit = "canopy_ew_bn_backward_dx_byte" "canopy_ew_bn_backward_dx"
[@@noalloc]

let check name ok = if not ok then invalid_arg ("Elementwise." ^ name)
let len = Array.length

(* The shape checks every entry runs before either path. *)
let check_leaky x ~dst = check "leaky: lengths" (len dst = len x)

let check_leaky_backward ~out ~dout ~dst =
  check "leaky_backward: lengths" (len out = len dout && len dst = len dout)

let check_interval_leaky ~center ~radius =
  check "interval_leaky: lengths" (len center = len radius);
  check "interval_leaky: center aliases radius" (center != radius)

let check_add ~dst src = check "add_into: lengths" (len src = len dst)
let check_lerp ~src ~dst = check "lerp_into: lengths" (len src = len dst)

let check_adam ~value ~grad ~m ~v =
  check "adam: lengths"
    (len grad = len value && len m = len value && len v = len value)

let check_col_sum ~dst src ~cols ~lo ~hi =
  check "col_sum: shape"
    (cols > 0 && len dst = cols && len src mod cols = 0
    && 0 <= lo && lo <= hi && hi * cols <= len src)

let check_matrix name m ~rows ~dim = check name (len m = rows * dim)
let check_vector name v ~dim = check name (len v = dim)

let check_bn_stats x ~mu ~var ~rows ~dim =
  check_matrix "bn_stats: x" x ~rows ~dim;
  check_vector "bn_stats: mu" mu ~dim;
  check_vector "bn_stats: var" var ~dim

let check_bn_normalize x ~mu ~inv_std ~gamma ~beta ~xhat ~out ~rows ~dim =
  check_matrix "bn_normalize: x" x ~rows ~dim;
  check_matrix "bn_normalize: xhat" xhat ~rows ~dim;
  check_matrix "bn_normalize: out" out ~rows ~dim;
  check "bn_normalize: xhat aliases" (xhat != x && xhat != out);
  List.iter (fun v -> check_vector "bn_normalize: vector" v ~dim)
    [ mu; inv_std; gamma; beta ]

let check_bn_sums ~dout ~xhat ~gamma ~dgamma ~dbeta ~s1 ~s2 ~rows ~dim =
  check_matrix "bn_backward_sums: dout" dout ~rows ~dim;
  check_matrix "bn_backward_sums: xhat" xhat ~rows ~dim;
  List.iter (fun v -> check_vector "bn_backward_sums: vector" v ~dim)
    [ gamma; dgamma; dbeta; s1; s2 ]

let check_bn_dx ~dout ~xhat ~gamma ~inv_std ~s1 ~s2 ~dx ~rows ~dim =
  check_matrix "bn_backward_dx: dout" dout ~rows ~dim;
  check_matrix "bn_backward_dx: xhat" xhat ~rows ~dim;
  check_matrix "bn_backward_dx: dx" dx ~rows ~dim;
  check "bn_backward_dx: dx aliases xhat" (dx != xhat);
  List.iter (fun v -> check_vector "bn_backward_dx: vector" v ~dim)
    [ gamma; inv_std; s1; s2 ]

(* ------------------------------------------------------------------ *)
(* The OCaml loops. *)

module Ocaml = struct
  (* Leaky ReLU's two slopes, indexed by [Bool.to_int (v >= 0.)]: a
     multiply selects the arm instead of a branch, which the random
     signs of a training batch mispredict about half the time. The bits
     are those of [if v >= 0. then v else slope *. v]: [v *. 1.] is [v]
     for every value arithmetic produces (±0, ±∞ and quiet NaN
     included), and a NaN compares false, so it takes the slope arm.

     The table of the last slope seen is kept: a network's slope is a
     constant, so its passes build no table. A published table is never
     written, so domains that race on the cell at worst each build one;
     the slope is matched bit for bit, so a -0 slope is not a +0 one. *)
  let slope_tab = Atomic.make [| 0.; 1. |]

  let tab_of slope =
    let tab = Atomic.get slope_tab in
    if Int64.bits_of_float tab.(0) = Int64.bits_of_float slope then tab
    else begin
      let tab = [| slope; 1. |] in
      Atomic.set slope_tab tab;
      tab
    end

  let leaky ~slope x ~dst =
    check_leaky x ~dst;
    let tab = tab_of slope in
    for i = 0 to len x - 1 do
      let v = Array.unsafe_get x i in
      Array.unsafe_set dst i (v *. Array.unsafe_get tab (Bool.to_int (v >= 0.)))
    done

  (* The slope's index for each cell is 1 when [out]'s sign bit is
     clear, so −0 takes the slope. The main pass makes no C call and no
     branch: it indexes by [not (v < 0.)], which is that bit for every
     nonzero number and 1 for a zero or a NaN, whose cells it therefore
     writes as [dout *. 1.], [dout]'s own value. A second pass runs only
     when such a cell exists, and multiplies by the slope the cells whose
     sign bit is set after all: a −0, by the sign of its reciprocal
     (1/−0 is −∞), and a NaN, by [Float.sign_bit]. Their product is then
     [dout *. slope] even when [dst] aliases [dout]. *)
  let leaky_backward ~slope ~out ~dout ~dst =
    check_leaky_backward ~out ~dout ~dst;
    let tab = tab_of slope in
    let nonzero_numbers = ref 1 in
    for i = 0 to len dout - 1 do
      let v = Array.unsafe_get out i in
      let negative = Bool.to_int (v < 0.) in
      Array.unsafe_set dst i
        (Array.unsafe_get dout i *. Array.unsafe_get tab (1 - negative));
      nonzero_numbers :=
        !nonzero_numbers land (negative lor Bool.to_int (v > 0.))
    done;
    if !nonzero_numbers = 0 then
      for i = 0 to len dout - 1 do
        let v = Array.unsafe_get out i in
        if if v = 0. then 1. /. v < 0. else v <> v && Float.sign_bit v then
          Array.unsafe_set dst i (Array.unsafe_get dst i *. slope)
      done

  (* The interval image of leaky ReLU over center-radius cells, in
     place: lo = f(c − r), hi = f(c + r), then c = (hi + lo)/2 and
     r = (hi − lo)/2, the endpoint formula of a monotone map. Here f
     branches on [>= 0.]; the kernel selects the same operand. *)
  let interval_leaky ~slope ~center ~radius =
    check_interval_leaky ~center ~radius;
    for i = 0 to len center - 1 do
      let ci = Array.unsafe_get center i and ri = Array.unsafe_get radius i in
      let l = ci -. ri and h = ci +. ri in
      let lo = if l >= 0. then l else slope *. l
      and hi = if h >= 0. then h else slope *. h in
      Array.unsafe_set center i (0.5 *. (hi +. lo));
      Array.unsafe_set radius i (0.5 *. (hi -. lo))
    done

  let add_into ~dst src =
    check_add ~dst src;
    for i = 0 to len dst - 1 do
      Array.unsafe_set dst i (Array.unsafe_get dst i +. Array.unsafe_get src i)
    done

  let lerp_into ~keep ~tau ~src ~dst =
    check_lerp ~src ~dst;
    for i = 0 to len dst - 1 do
      Array.unsafe_set dst i
        ((keep *. Array.unsafe_get dst i) +. (tau *. Array.unsafe_get src i))
    done

  let adam ~beta1 ~one_m_b1 ~beta2 ~one_m_b2 ~step_size ~eps ~value ~grad ~m
      ~v =
    check_adam ~value ~grad ~m ~v;
    for i = 0 to len value - 1 do
      let g = Array.unsafe_get grad i in
      let mi = (beta1 *. Array.unsafe_get m i) +. (one_m_b1 *. g) in
      let vi = (beta2 *. Array.unsafe_get v i) +. (one_m_b2 *. g *. g) in
      Array.unsafe_set m i mi;
      Array.unsafe_set v i vi;
      Array.unsafe_set value i
        (Array.unsafe_get value i -. (step_size *. mi /. (sqrt vi +. eps)))
    done

  let col_sum ~zero ~dst src ~cols ~lo ~hi =
    check_col_sum ~dst src ~cols ~lo ~hi;
    if zero then Array.fill dst 0 cols 0.;
    for i = lo to hi - 1 do
      let base = i * cols in
      for j = 0 to cols - 1 do
        Array.unsafe_set dst j
          (Array.unsafe_get dst j +. Array.unsafe_get src (base + j))
      done
    done

  let bn_stats x ~mu ~var ~rows ~dim =
    check_bn_stats x ~mu ~var ~rows ~dim;
    let nf = float_of_int rows in
    let inv_n = 1. /. nf in
    Array.fill mu 0 dim 0.;
    Array.fill var 0 dim 0.;
    for b = 0 to rows - 1 do
      let base = b * dim in
      for i = 0 to dim - 1 do
        Array.unsafe_set mu i
          (Array.unsafe_get mu i +. (inv_n *. Array.unsafe_get x (base + i)))
      done
    done;
    for b = 0 to rows - 1 do
      let base = b * dim in
      for i = 0 to dim - 1 do
        let d = Array.unsafe_get x (base + i) -. Array.unsafe_get mu i in
        Array.unsafe_set var i (Array.unsafe_get var i +. (d *. d /. nf))
      done
    done

  let bn_normalize x ~mu ~inv_std ~gamma ~beta ~xhat ~out ~rows ~dim =
    check_bn_normalize x ~mu ~inv_std ~gamma ~beta ~xhat ~out ~rows ~dim;
    for b = 0 to rows - 1 do
      let base = b * dim in
      for i = 0 to dim - 1 do
        let h =
          (Array.unsafe_get x (base + i) -. Array.unsafe_get mu i)
          *. Array.unsafe_get inv_std i
        in
        Array.unsafe_set xhat (base + i) h;
        Array.unsafe_set out (base + i)
          ((Array.unsafe_get gamma i *. h) +. Array.unsafe_get beta i)
      done
    done

  let bn_backward_sums ~param_grads ~dout ~xhat ~gamma ~dgamma ~dbeta ~s1 ~s2
      ~rows ~dim =
    check_bn_sums ~dout ~xhat ~gamma ~dgamma ~dbeta ~s1 ~s2 ~rows ~dim;
    Array.fill s1 0 dim 0.;
    Array.fill s2 0 dim 0.;
    for b = 0 to rows - 1 do
      let base = b * dim in
      for i = 0 to dim - 1 do
        let g = Array.unsafe_get dout (base + i) in
        let xh = Array.unsafe_get xhat (base + i) in
        if param_grads then begin
          Array.unsafe_set dgamma i (Array.unsafe_get dgamma i +. (g *. xh));
          Array.unsafe_set dbeta i (Array.unsafe_get dbeta i +. g)
        end;
        let gh = g *. Array.unsafe_get gamma i in
        Array.unsafe_set s1 i (Array.unsafe_get s1 i +. gh);
        Array.unsafe_set s2 i (Array.unsafe_get s2 i +. (gh *. xh))
      done
    done

  let bn_backward_dx ~dout ~xhat ~gamma ~inv_std ~s1 ~s2 ~dx ~rows ~dim =
    check_bn_dx ~dout ~xhat ~gamma ~inv_std ~s1 ~s2 ~dx ~rows ~dim;
    let nf = float_of_int rows in
    for b = 0 to rows - 1 do
      let base = b * dim in
      for i = 0 to dim - 1 do
        let gh = Array.unsafe_get dout (base + i) *. Array.unsafe_get gamma i in
        Array.unsafe_set dx (base + i)
          (Array.unsafe_get inv_std i /. nf
          *. ((nf *. gh) -. Array.unsafe_get s1 i
             -. (Array.unsafe_get xhat (base + i) *. Array.unsafe_get s2 i)))
      done
    done
end

(* ------------------------------------------------------------------ *)
(* The entries: check, then the C kernel or the OCaml loop. *)

let leaky ~slope x ~dst =
  if avx2 then begin
    check_leaky x ~dst;
    c_leaky x dst slope (len x)
  end
  else Ocaml.leaky ~slope x ~dst

let leaky_backward ~slope ~out ~dout ~dst =
  if avx2 then begin
    check_leaky_backward ~out ~dout ~dst;
    c_leaky_backward out dout dst slope (len dout)
  end
  else Ocaml.leaky_backward ~slope ~out ~dout ~dst

let interval_leaky ~slope ~center ~radius =
  if avx2 then begin
    check_interval_leaky ~center ~radius;
    c_interval_leaky center radius slope (len center)
  end
  else Ocaml.interval_leaky ~slope ~center ~radius

let add_into ~dst src =
  if avx2 then begin
    check_add ~dst src;
    c_add dst src (len dst)
  end
  else Ocaml.add_into ~dst src

let lerp_into ~keep ~tau ~src ~dst =
  if avx2 then begin
    check_lerp ~src ~dst;
    c_lerp dst src keep tau (len dst)
  end
  else Ocaml.lerp_into ~keep ~tau ~src ~dst

let adam ~beta1 ~one_m_b1 ~beta2 ~one_m_b2 ~step_size ~eps ~value ~grad ~m ~v
    =
  if avx2 then begin
    check_adam ~value ~grad ~m ~v;
    c_adam value grad m v (len value) beta1 one_m_b1 beta2 one_m_b2 step_size
      eps
  end
  else
    Ocaml.adam ~beta1 ~one_m_b1 ~beta2 ~one_m_b2 ~step_size ~eps ~value ~grad
      ~m ~v

let col_sum ~zero ~dst src ~cols ~lo ~hi =
  if avx2 then begin
    check_col_sum ~dst src ~cols ~lo ~hi;
    c_col_sum dst src cols lo hi (Bool.to_int zero)
  end
  else Ocaml.col_sum ~zero ~dst src ~cols ~lo ~hi

let bn_stats x ~mu ~var ~rows ~dim =
  if avx2 then begin
    check_bn_stats x ~mu ~var ~rows ~dim;
    let nf = float_of_int rows in
    c_bn_stats x mu var rows dim (1. /. nf) nf
  end
  else Ocaml.bn_stats x ~mu ~var ~rows ~dim

let bn_normalize x ~mu ~inv_std ~gamma ~beta ~xhat ~out ~rows ~dim =
  if avx2 then begin
    check_bn_normalize x ~mu ~inv_std ~gamma ~beta ~xhat ~out ~rows ~dim;
    c_bn_normalize x mu inv_std gamma beta xhat out rows dim
  end
  else Ocaml.bn_normalize x ~mu ~inv_std ~gamma ~beta ~xhat ~out ~rows ~dim

let bn_backward_sums ~param_grads ~dout ~xhat ~gamma ~dgamma ~dbeta ~s1 ~s2
    ~rows ~dim =
  if avx2 then begin
    check_bn_sums ~dout ~xhat ~gamma ~dgamma ~dbeta ~s1 ~s2 ~rows ~dim;
    c_bn_backward_sums dout xhat gamma dgamma dbeta s1 s2 rows dim
      (Bool.to_int param_grads)
  end
  else
    Ocaml.bn_backward_sums ~param_grads ~dout ~xhat ~gamma ~dgamma ~dbeta ~s1
      ~s2 ~rows ~dim

let bn_backward_dx ~dout ~xhat ~gamma ~inv_std ~s1 ~s2 ~dx ~rows ~dim =
  if avx2 then begin
    check_bn_dx ~dout ~xhat ~gamma ~inv_std ~s1 ~s2 ~dx ~rows ~dim;
    c_bn_backward_dx dout xhat gamma inv_std s1 s2 dx rows dim
      (float_of_int rows)
  end
  else Ocaml.bn_backward_dx ~dout ~xhat ~gamma ~inv_std ~s1 ~s2 ~dx ~rows ~dim
