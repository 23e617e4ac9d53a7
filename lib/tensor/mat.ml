type t = { rows : int; cols : int; data : float array (* row-major *) }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: dims";
  { rows; cols; data = Array.make (rows * cols) 0. }

(* Internal: uninitialized allocation, only for kernels that overwrite
   every cell before the matrix escapes. *)
let create_uninit ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: dims";
  { rows; cols; data = Array.create_float (rows * cols) }

let init ~rows ~cols f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Mat.of_arrays: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Mat.of_arrays: empty row";
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged")
    a;
  init ~rows ~cols (fun i j -> a.(i).(j))

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.get: index";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Mat.set: index";
  m.data.((i * m.cols) + j) <- x

let copy m = { m with data = Array.copy m.data }
let fill m x = Array.fill m.data 0 (Array.length m.data) x
let row m i = Array.sub m.data (i * m.cols) m.cols

let transpose m = init ~rows:m.cols ~cols:m.rows (fun i j -> get m j i)

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch" name)

let add a b =
  check_same "add" a b;
  { a with data = Array.mapi (fun i x -> x +. b.data.(i)) a.data }

let map f m = { m with data = Array.map f m.data }
let abs m = map Float.abs m

let mat_vec m x =
  if m.cols <> Array.length x then invalid_arg "Mat.mat_vec: dims";
  let out = Array.make m.rows 0. in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    let acc = ref 0. in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(base + j) *. x.(j))
    done;
    out.(i) <- !acc
  done;
  out

(* The batched kernels below validate every dimension up front and then
   run on the flat arrays with unsafe accesses: the index arithmetic is
   affine in loop counters whose bounds were just checked, and dropping
   the per-element bounds checks is a large fraction of the batching
   speedup these kernels exist to provide. *)

(* dst.(dbase+j) += s *. x.(xbase+j) for j < len; updates touch distinct
   cells so the unrolling cannot change the result. *)
let[@inline] saxpy_row ~dst ~dbase ~s ~x ~xbase ~len =
  let j4 = len - (len land 3) in
  let j = ref 0 in
  while !j < j4 do
    let d = dbase + !j and v = xbase + !j in
    Array.unsafe_set dst d
      (Array.unsafe_get dst d +. (s *. Array.unsafe_get x v));
    Array.unsafe_set dst (d + 1)
      (Array.unsafe_get dst (d + 1) +. (s *. Array.unsafe_get x (v + 1)));
    Array.unsafe_set dst (d + 2)
      (Array.unsafe_get dst (d + 2) +. (s *. Array.unsafe_get x (v + 2)));
    Array.unsafe_set dst (d + 3)
      (Array.unsafe_get dst (d + 3) +. (s *. Array.unsafe_get x (v + 3)));
    j := !j + 4
  done;
  for j = j4 to len - 1 do
    Array.unsafe_set dst (dbase + j)
      (Array.unsafe_get dst (dbase + j) +. (s *. Array.unsafe_get x (xbase + j)))
  done

(* dst.(dbase+j) += s0*x0 + s1*x1 + s2*x2 + s3*x3 row-wise: four source
   rows are folded into [dst] per pass, quartering the load/store traffic
   on [dst] relative to four single-row saxpys. [+.] associates to the
   left, so the four products are added to the cell one after the other:
   the same chain as four single-row saxpys. *)
let[@inline] saxpy_row4 ~dst ~dbase ~s0 ~s1 ~s2 ~s3 ~x ~x0 ~x1 ~x2 ~x3 ~len =
  for j = 0 to len - 1 do
    Array.unsafe_set dst (dbase + j)
      (Array.unsafe_get dst (dbase + j)
      +. (s0 *. Array.unsafe_get x (x0 + j))
      +. (s1 *. Array.unsafe_get x (x1 + j))
      +. (s2 *. Array.unsafe_get x (x2 + j))
      +. (s3 *. Array.unsafe_get x (x3 + j)))
  done

(* Two (resp. four) dst rows fold the same four source rows per pass: the
   four [x] loads are shared between all the accumulation chains. *)
let[@inline] saxpy_row4x2 ~dst ~d0 ~d1 ~s0 ~s1 ~s2 ~s3 ~t0 ~t1 ~t2 ~t3 ~x ~x0
    ~x1 ~x2 ~x3 ~len =
  for j = 0 to len - 1 do
    let bv0 = Array.unsafe_get x (x0 + j) in
    let bv1 = Array.unsafe_get x (x1 + j) in
    let bv2 = Array.unsafe_get x (x2 + j) in
    let bv3 = Array.unsafe_get x (x3 + j) in
    Array.unsafe_set dst (d0 + j)
      (Array.unsafe_get dst (d0 + j)
      +. (s0 *. bv0) +. (s1 *. bv1) +. (s2 *. bv2) +. (s3 *. bv3));
    Array.unsafe_set dst (d1 + j)
      (Array.unsafe_get dst (d1 + j)
      +. (t0 *. bv0) +. (t1 *. bv1) +. (t2 *. bv2) +. (t3 *. bv3))
  done

let[@inline] saxpy_row4x4 ~dst ~d0 ~d1 ~d2 ~d3 ~s0 ~s1 ~s2 ~s3 ~t0 ~t1 ~t2 ~t3
    ~u0 ~u1 ~u2 ~u3 ~w0 ~w1 ~w2 ~w3 ~x ~x0 ~x1 ~x2 ~x3 ~len =
  for j = 0 to len - 1 do
    let bv0 = Array.unsafe_get x (x0 + j) in
    let bv1 = Array.unsafe_get x (x1 + j) in
    let bv2 = Array.unsafe_get x (x2 + j) in
    let bv3 = Array.unsafe_get x (x3 + j) in
    Array.unsafe_set dst (d0 + j)
      (Array.unsafe_get dst (d0 + j)
      +. (s0 *. bv0) +. (s1 *. bv1) +. (s2 *. bv2) +. (s3 *. bv3));
    Array.unsafe_set dst (d1 + j)
      (Array.unsafe_get dst (d1 + j)
      +. (t0 *. bv0) +. (t1 *. bv1) +. (t2 *. bv2) +. (t3 *. bv3));
    Array.unsafe_set dst (d2 + j)
      (Array.unsafe_get dst (d2 + j)
      +. (u0 *. bv0) +. (u1 *. bv1) +. (u2 *. bv2) +. (u3 *. bv3));
    Array.unsafe_set dst (d3 + j)
      (Array.unsafe_get dst (d3 + j)
      +. (w0 *. bv0) +. (w1 *. bv1) +. (w2 *. bv2) +. (w3 *. bv3))
  done

(* ------------------------------------------------------------------ *)
(* Parallel dispatch.

   The three GEMM kernels below ([mat_mul_into], [mat_mul_nt_into] /
   [mat_mul_nt_bias_into], [mat_mul_tn_acc]) are implemented as range
   kernels over a half-open interval [lo, hi) of output rows, and large
   calls fan the row ranges out over [Canopy_util.Pool]. Determinism
   contract (DESIGN §10): chunk boundaries are a pure function of the
   matrix dimensions and the (global) grain settings — never the domain
   count — every output row is written by exactly one chunk, and each
   range kernel performs, per row, exactly the operation sequence of the
   sequential reference. Chunks are multiples of 4 rows so the 4-row
   register blocks and the remainder rows of a chunked run coincide with
   the sequential blocking (the remainder paths differ from the blocked
   ones in accumulation shape and zero-skipping, so rows must not change
   region when the matrix is split). *)

module Scratch = Canopy_util.Scratch

(* Per-domain scratch arena for kernel workspaces. Slot assignments are
   module-private: slot 0 holds the packed B panel of the nt kernels.
   The DLS key makes the arena domain-local, so its only writer is the
   domain that fetched it; an array taken from it may be handed to pool
   workers read-only, published by the pool's mutex pair (DESIGN §10). *)
let scratch_key : Scratch.t Domain.DLS.key =
  Domain.DLS.new_key Scratch.create

(* The grain: how many flops one region needs before fanning out at all
   ([par_min_flops]) and how many flops each chunk should carry
   ([par_chunk_flops]). Grain only moves chunk boundaries and the
   parallel/sequential choice, both of which the kernels are
   bit-invariant to, so it can never change a result. On 2-vCPU hosts
   a 64 Ki-flop chunk is 3–11 µs of GEMM against a per-chunk hand-off
   of at most 0.12 µs, and a region fans out only once it has four
   chunks' worth of work. [set_parallel_grain] lowers both so that
   test-sized shapes fan out. *)
let par_min_flops = ref 262_144
let par_chunk_flops = ref 65_536

let set_parallel_grain ~min_flops ~chunk_flops =
  if min_flops < 0 || chunk_flops <= 0 then
    invalid_arg "Mat.set_parallel_grain";
  par_min_flops := min_flops;
  par_chunk_flops := chunk_flops

let parallel_grain () = (!par_min_flops, !par_chunk_flops)

(* One chunk planner for every pool consumer (this module, Anet boxes,
   Zonotope boxes): [Some chunk] — fan out in chunks of [chunk] rows —
   or [None] for the sequential path. Chunks are rounded up to a
   multiple of 4 rows so the GEMM register blocks and remainder rows of
   a chunked run coincide with the sequential blocking; for row-
   independent box workloads the alignment is merely a harmless
   coarsening. The decision and the chunk size are pure functions of
   [(rows, row_flops)] and the process-global grain — never the domain
   count — so chunking is deterministic (DESIGN §10). *)
let plan_chunks ~rows ~row_flops =
  if
    rows > 4
    && rows * row_flops >= !par_min_flops
    && (not (Canopy_util.Pool.in_task ()))
    && Canopy_util.Pool.(domains (default ())) > 1
  then begin
    let raw = max 1 (!par_chunk_flops / max 1 row_flops) in
    let chunk = (raw + 3) / 4 * 4 in
    (* A single-chunk plan would enter the pool only to run inline. *)
    if rows > chunk then Some chunk else None
  end
  else None

(* ------------------------------------------------------------------ *)
(* AVX2 kernels (gemm_stubs.c).

   On hosts with AVX2 the inner loops of the three GEMM shapes run in C:
   each vector lane is one output cell's accumulation chain, seeded and
   stepped in ascending k exactly as the OCaml range kernels below, with
   their zero-skips, so the choice never changes a bit (DESIGN §10). The
   stubs are [@@noalloc]: they take the flat float arrays and a
   [lo, hi) range of output rows, allocate nothing, raise nothing and
   touch no global state, so the pool may run them on any domain. The
   OCaml kernels stay as the small-shape path, the path on every other
   host, and the oracle the tests hold the C kernels to. The choice is
   made once, in [Elementwise], from the CPU and the float array
   layout, for the GEMMs and the element-wise kernels alike. *)

external c_nt_pack :
  float array -> (int[@untagged]) -> (int[@untagged]) -> float array -> unit
  = "canopy_gemm_nt_pack_byte" "canopy_gemm_nt_pack"
[@@noalloc]

external c_nt :
  float array ->
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "canopy_gemm_nt_byte" "canopy_gemm_nt"
[@@noalloc]

external c_nn :
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "canopy_gemm_nn_byte" "canopy_gemm_nn"
[@@noalloc]

external c_tn :
  float array ->
  float array ->
  float array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "canopy_gemm_tn_byte" "canopy_gemm_tn"
[@@noalloc]

let avx2 = Elementwise.avx2

let gemm_kernel () = if avx2 then "avx2" else "ocaml"

(* One k block of the normal-layout GEMM: accumulate
   a[·, klo..khi) · b[klo..khi), ·] into rows [lo, hi) of [dst]. [klo] is
   a multiple of 4 and [khi] is either a multiple of 4 or [a.cols], so
   the 4-wide k groups of [saxpy_row4x4]/[saxpy_row4] land on exactly the
   offsets of an unblocked sweep and the scalar k tail runs only in the
   final block. Each output cell's accumulation chain therefore continues
   in ascending k order across blocks (through an exact float64
   store/reload), bit-identical to one full sweep. *)
let mat_mul_into_kblock ~dst a b ~lo ~hi ~klo ~khi =
  let ad = a.data and bd = b.data and od = dst.data in
  let i4 = a.rows - (a.rows land 3) in
  let k4 = min khi (a.cols - (a.cols land 3)) in
  let stop4 = min hi i4 in
  let i = ref lo in
  while !i < stop4 do
    let ab0 = !i * a.cols in
    let ab1 = ab0 + a.cols in
    let ab2 = ab1 + a.cols in
    let ab3 = ab2 + a.cols in
    let ob0 = !i * b.cols in
    let ob1 = ob0 + b.cols in
    let ob2 = ob1 + b.cols in
    let ob3 = ob2 + b.cols in
    let k = ref klo in
    while !k < k4 do
      let x0 = !k * b.cols in
      saxpy_row4x4 ~dst:od ~d0:ob0 ~d1:ob1 ~d2:ob2 ~d3:ob3
        ~s0:(Array.unsafe_get ad (ab0 + !k))
        ~s1:(Array.unsafe_get ad (ab0 + !k + 1))
        ~s2:(Array.unsafe_get ad (ab0 + !k + 2))
        ~s3:(Array.unsafe_get ad (ab0 + !k + 3))
        ~t0:(Array.unsafe_get ad (ab1 + !k))
        ~t1:(Array.unsafe_get ad (ab1 + !k + 1))
        ~t2:(Array.unsafe_get ad (ab1 + !k + 2))
        ~t3:(Array.unsafe_get ad (ab1 + !k + 3))
        ~u0:(Array.unsafe_get ad (ab2 + !k))
        ~u1:(Array.unsafe_get ad (ab2 + !k + 1))
        ~u2:(Array.unsafe_get ad (ab2 + !k + 2))
        ~u3:(Array.unsafe_get ad (ab2 + !k + 3))
        ~w0:(Array.unsafe_get ad (ab3 + !k))
        ~w1:(Array.unsafe_get ad (ab3 + !k + 1))
        ~w2:(Array.unsafe_get ad (ab3 + !k + 2))
        ~w3:(Array.unsafe_get ad (ab3 + !k + 3))
        ~x:bd ~x0 ~x1:(x0 + b.cols)
        ~x2:(x0 + (2 * b.cols))
        ~x3:(x0 + (3 * b.cols))
        ~len:b.cols;
      k := !k + 4
    done;
    for k = k4 to khi - 1 do
      let s = Array.unsafe_get ad (ab0 + k) in
      let t = Array.unsafe_get ad (ab1 + k) in
      let u = Array.unsafe_get ad (ab2 + k) in
      let w = Array.unsafe_get ad (ab3 + k) in
      let xb = k * b.cols in
      for j = 0 to b.cols - 1 do
        let bv = Array.unsafe_get bd (xb + j) in
        Array.unsafe_set od (ob0 + j)
          (Array.unsafe_get od (ob0 + j) +. (s *. bv));
        Array.unsafe_set od (ob1 + j)
          (Array.unsafe_get od (ob1 + j) +. (t *. bv));
        Array.unsafe_set od (ob2 + j)
          (Array.unsafe_get od (ob2 + j) +. (u *. bv));
        Array.unsafe_set od (ob3 + j)
          (Array.unsafe_get od (ob3 + j) +. (w *. bv))
      done
    done;
    i := !i + 4
  done;
  for i = !i to hi - 1 do
    let abase = i * a.cols in
    let obase = i * b.cols in
    let k = ref klo in
    while !k < k4 do
      let x0 = !k * b.cols in
      saxpy_row4 ~dst:od ~dbase:obase
        ~s0:(Array.unsafe_get ad (abase + !k))
        ~s1:(Array.unsafe_get ad (abase + !k + 1))
        ~s2:(Array.unsafe_get ad (abase + !k + 2))
        ~s3:(Array.unsafe_get ad (abase + !k + 3))
        ~x:bd ~x0 ~x1:(x0 + b.cols)
        ~x2:(x0 + (2 * b.cols))
        ~x3:(x0 + (3 * b.cols))
        ~len:b.cols;
      k := !k + 4
    done;
    for k = k4 to khi - 1 do
      let aik = Array.unsafe_get ad (abase + k) in
      if aik <> 0. then
        saxpy_row ~dst:od ~dbase:obase ~s:aik ~x:bd ~xbase:(k * b.cols)
          ~len:b.cols
    done
  done

(* Rows of [b] consumed per k block: [mm_kc * b.cols] floats of [b] stay
   resident while every output row of the range folds them in, instead
   of streaming all of [b] once per 4-row stripe. Must stay a multiple
   of 4 (see [mat_mul_into_kblock]). *)
let mm_kc = 128

let nn_range_ocaml ~dst a b ~lo ~hi =
  (* The range kernel owns exactly rows [lo, hi): it zero-fills just
     those, then accumulates one k block at a time. *)
  Array.fill dst.data (lo * b.cols) ((hi - lo) * b.cols) 0.;
  let klo = ref 0 in
  while !klo < a.cols do
    let khi = min a.cols (!klo + mm_kc) in
    mat_mul_into_kblock ~dst a b ~lo ~hi ~klo:!klo ~khi;
    klo := khi
  done

let nn_range ~dst a b ~lo ~hi =
  if avx2 then c_nn dst.data a.data b.data a.rows a.cols b.cols lo hi
  else nn_range_ocaml ~dst a b ~lo ~hi

(* Per-output-row flop estimates live next to their kernels; dispatchers
   and external call sites (Anet, Zonotope, the bench) must take them
   from here rather than restating the formulas. *)
let mat_mul_row_flops a b = 2 * a.cols * b.cols

let mat_mul_into ~dst a b =
  if a.cols <> b.rows then invalid_arg "Mat.mat_mul_into: dims";
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg "Mat.mat_mul_into: dst";
  match plan_chunks ~rows:a.rows ~row_flops:(mat_mul_row_flops a b) with
  | Some chunk ->
      Canopy_util.Pool.parallel_for_chunks ~chunk a.rows (fun ~lo ~hi ->
          nn_range ~dst a b ~lo ~hi)
  | None -> nn_range ~dst a b ~lo:0 ~hi:a.rows

let mat_mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mat_mul: dims";
  (* [mat_mul_into] zero-fills before accumulating. *)
  let out = create_uninit ~rows:a.rows ~cols:b.cols in
  mat_mul_into ~dst:out a b;
  out

(* dst <- a · bᵀ, each cell seeded with [bias.(j)] (the fused dense
   forward [x·wᵀ + b]) or with +0. when [bias] is [None]. Row-major makes
   this the cache-friendly GEMM shape: the inner product walks one row
   of [a] and one row of [b], both contiguous. Four rows of [b] at a
   time (each [a] load feeds four independent accumulator chains), with
   the k loop unrolled ×4 to amortize the loop overhead. Every cell sums
   its products in ascending k order, so each output row of the plain
   form is bit-identical to a per-row [mat_vec], and because output
   rows are fully independent any row partition of [0, a.rows) is
   bit-identical to the sequential sweep. Seeding with the bias instead
   of adding it after the dot product changes the result by rounding
   only. *)
let nt_range_ocaml ~dst a b ~bias ~lo ~hi =
  let inner = a.cols in
  let ad = a.data and bd = b.data and od = dst.data in
  let j4 = b.rows - (b.rows land 3) in
  let k4 = inner - (inner land 3) in
  let[@inline] seed j =
    match bias with None -> 0. | Some v -> Array.unsafe_get v j
  in
  for i = lo to hi - 1 do
    let abase = i * inner in
    let obase = i * dst.cols in
    let j = ref 0 in
    while !j < j4 do
      let b0 = !j * inner in
      let b1 = b0 + inner in
      let b2 = b1 + inner in
      let b3 = b2 + inner in
      let s0 = ref (seed !j) and s1 = ref (seed (!j + 1)) in
      let s2 = ref (seed (!j + 2)) and s3 = ref (seed (!j + 3)) in
      let k = ref 0 in
      while !k < k4 do
        let av = Array.unsafe_get ad (abase + !k) in
        s0 := !s0 +. (av *. Array.unsafe_get bd (b0 + !k));
        s1 := !s1 +. (av *. Array.unsafe_get bd (b1 + !k));
        s2 := !s2 +. (av *. Array.unsafe_get bd (b2 + !k));
        s3 := !s3 +. (av *. Array.unsafe_get bd (b3 + !k));
        let av = Array.unsafe_get ad (abase + !k + 1) in
        s0 := !s0 +. (av *. Array.unsafe_get bd (b0 + !k + 1));
        s1 := !s1 +. (av *. Array.unsafe_get bd (b1 + !k + 1));
        s2 := !s2 +. (av *. Array.unsafe_get bd (b2 + !k + 1));
        s3 := !s3 +. (av *. Array.unsafe_get bd (b3 + !k + 1));
        let av = Array.unsafe_get ad (abase + !k + 2) in
        s0 := !s0 +. (av *. Array.unsafe_get bd (b0 + !k + 2));
        s1 := !s1 +. (av *. Array.unsafe_get bd (b1 + !k + 2));
        s2 := !s2 +. (av *. Array.unsafe_get bd (b2 + !k + 2));
        s3 := !s3 +. (av *. Array.unsafe_get bd (b3 + !k + 2));
        let av = Array.unsafe_get ad (abase + !k + 3) in
        s0 := !s0 +. (av *. Array.unsafe_get bd (b0 + !k + 3));
        s1 := !s1 +. (av *. Array.unsafe_get bd (b1 + !k + 3));
        s2 := !s2 +. (av *. Array.unsafe_get bd (b2 + !k + 3));
        s3 := !s3 +. (av *. Array.unsafe_get bd (b3 + !k + 3));
        k := !k + 4
      done;
      while !k < inner do
        let av = Array.unsafe_get ad (abase + !k) in
        s0 := !s0 +. (av *. Array.unsafe_get bd (b0 + !k));
        s1 := !s1 +. (av *. Array.unsafe_get bd (b1 + !k));
        s2 := !s2 +. (av *. Array.unsafe_get bd (b2 + !k));
        s3 := !s3 +. (av *. Array.unsafe_get bd (b3 + !k));
        incr k
      done;
      Array.unsafe_set od (obase + !j) !s0;
      Array.unsafe_set od (obase + !j + 1) !s1;
      Array.unsafe_set od (obase + !j + 2) !s2;
      Array.unsafe_set od (obase + !j + 3) !s3;
      j := !j + 4
    done;
    for j = j4 to b.rows - 1 do
      let bbase = j * inner in
      let acc = ref (seed j) in
      for k = 0 to inner - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get ad (abase + k) *. Array.unsafe_get bd (bbase + k))
      done;
      Array.unsafe_set od (obase + j) !acc
    done
  done

(* Below this many [a] rows the C kernel's per-call packing of [b] is
   not worth amortizing: the direct OCaml kernel runs instead. Timed at
   the certificate shapes ([b] 64×35, 64×64 and 1×64), the C kernel
   with its packing won on all three from 3 rows on, and lost the
   64×64 one at 1 row (about 2.1–2.4 µs against 1.3–1.7) and sometimes
   at 2; so 1- and 2-row calls (an actor forward per decision) stay in
   OCaml and a 10-row training certificate runs in C. A shape
   threshold, never a domain-count one. *)
let nt_c_rows = 3

(* The C kernel first packs the 8-row tiles of [b] k-major into the
   calling domain's scratch slot 0; the panel is written before any
   parallel region and workers read it through the region closure,
   published by the pool's mutex pair. *)
let nt_pack b ~inner =
  let scratch = Domain.DLS.get scratch_key in
  let len = max 1 ((b.rows - (b.rows land 7)) * inner) in
  let panel = Scratch.get scratch ~slot:0 ~len in
  c_nt_pack b.data b.rows inner panel;
  panel

let nt_c ~dst a b ~bias panel ~lo ~hi =
  match bias with
  | Some v -> c_nt a.data panel b.data v 1 dst.data a.cols b.rows lo hi
  | None -> c_nt a.data panel b.data b.data 0 dst.data a.cols b.rows lo hi

(* Shared dispatcher for the nt family: the kernel by shape, then
   sequential vs chunked by the planner. Both axes preserve bits. The
   sequential path calls its range kernel directly, so it builds no
   closure. *)
let nt_dispatch ~dst a b ~bias ~row_flops =
  let c_kernel = avx2 && a.rows >= nt_c_rows in
  match plan_chunks ~rows:a.rows ~row_flops with
  | Some chunk ->
      let run =
        if c_kernel then nt_c ~dst a b ~bias (nt_pack b ~inner:a.cols)
        else nt_range_ocaml ~dst a b ~bias
      in
      Canopy_util.Pool.parallel_for_chunks ~chunk a.rows run
  | None ->
      if c_kernel then
        nt_c ~dst a b ~bias (nt_pack b ~inner:a.cols) ~lo:0 ~hi:a.rows
      else nt_range_ocaml ~dst a b ~bias ~lo:0 ~hi:a.rows

let mat_mul_nt_row_flops a b = 2 * a.cols * b.rows

let mat_mul_nt_into ~dst a b =
  if a.cols <> b.cols then invalid_arg "Mat.mat_mul_nt_into: dims";
  if dst.rows <> a.rows || dst.cols <> b.rows then
    invalid_arg "Mat.mat_mul_nt_into: dst";
  nt_dispatch ~dst a b ~bias:None ~row_flops:(mat_mul_nt_row_flops a b)

let mat_mul_nt a b =
  if a.cols <> b.cols then invalid_arg "Mat.mat_mul_nt_into: dims";
  let out = create_uninit ~rows:a.rows ~cols:b.rows in
  mat_mul_nt_into ~dst:out a b;
  out

let mat_mul_nt_bias_into ~dst a b bias =
  if a.cols <> b.cols then invalid_arg "Mat.mat_mul_nt_bias_into: dims";
  if Array.length bias <> b.rows then
    invalid_arg "Mat.mat_mul_nt_bias_into: bias";
  if dst.rows <> a.rows || dst.cols <> b.rows then
    invalid_arg "Mat.mat_mul_nt_bias_into: dst";
  nt_dispatch ~dst a b ~bias:(Some bias)
    ~row_flops:(mat_mul_nt_row_flops a b)

(* dst <- dst + aᵀ · b, the batched weight-gradient kernel
   (dw += doutᵀ · x), or dst <- aᵀ · b when [zero] (below).
   Register-blocked over four samples (rows of [a]/[b])
   per pass; the four per-sample products are added to a cell one after
   the other, so each cell is one chain seeded with its [dst] value in
   ascending sample order. Samples past the last 4-group skip zero
   [a] entries; the blocked samples do not. *)
(* Range kernel over dst rows [lo, hi) (lo a multiple of 4) and samples
   [klo, khi). The k loops stay outermost and complete per chunk, so each
   dst row receives its sample contributions in exactly the sequential
   order; the global i4/i2 region boundaries keep every row on the same
   saxpy variant (4×4 / 4×2 / single, with the remainder rows' zero-skip)
   it takes in the full sweep. The 4-sample groups start at [klo] and the
   zero-skip cut-off comes from the range's own length, so a sample range
   runs exactly as a copy of those rows would. *)
let mat_mul_tn_acc_block ~dst a b ~klo ~khi ~lo ~hi =
  let ad = a.data and bd = b.data and od = dst.data in
  let i4 = a.cols - (a.cols land 3) in
  let i2 = a.cols - (a.cols land 1) in
  let k4 = khi - ((khi - klo) land 3) in
  let stop4 = min hi i4 in
  let stop2 = min hi i2 in
  let k = ref klo in
  while !k < k4 do
    let a0 = !k * a.cols in
    let a1 = a0 + a.cols in
    let a2 = a1 + a.cols in
    let a3 = a2 + a.cols in
    let x0 = !k * b.cols in
    let x1 = x0 + b.cols in
    let x2 = x1 + b.cols in
    let x3 = x2 + b.cols in
    let i = ref lo in
    while !i < stop4 do
      let d0 = !i * dst.cols in
      saxpy_row4x4 ~dst:od ~d0 ~d1:(d0 + dst.cols) ~d2:(d0 + (2 * dst.cols))
        ~d3:(d0 + (3 * dst.cols))
        ~s0:(Array.unsafe_get ad (a0 + !i))
        ~s1:(Array.unsafe_get ad (a1 + !i))
        ~s2:(Array.unsafe_get ad (a2 + !i))
        ~s3:(Array.unsafe_get ad (a3 + !i))
        ~t0:(Array.unsafe_get ad (a0 + !i + 1))
        ~t1:(Array.unsafe_get ad (a1 + !i + 1))
        ~t2:(Array.unsafe_get ad (a2 + !i + 1))
        ~t3:(Array.unsafe_get ad (a3 + !i + 1))
        ~u0:(Array.unsafe_get ad (a0 + !i + 2))
        ~u1:(Array.unsafe_get ad (a1 + !i + 2))
        ~u2:(Array.unsafe_get ad (a2 + !i + 2))
        ~u3:(Array.unsafe_get ad (a3 + !i + 2))
        ~w0:(Array.unsafe_get ad (a0 + !i + 3))
        ~w1:(Array.unsafe_get ad (a1 + !i + 3))
        ~w2:(Array.unsafe_get ad (a2 + !i + 3))
        ~w3:(Array.unsafe_get ad (a3 + !i + 3))
        ~x:bd ~x0 ~x1 ~x2 ~x3 ~len:b.cols;
      i := !i + 4
    done;
    while !i < stop2 do
      saxpy_row4x2 ~dst:od ~d0:(!i * dst.cols) ~d1:((!i + 1) * dst.cols)
        ~s0:(Array.unsafe_get ad (a0 + !i))
        ~s1:(Array.unsafe_get ad (a1 + !i))
        ~s2:(Array.unsafe_get ad (a2 + !i))
        ~s3:(Array.unsafe_get ad (a3 + !i))
        ~t0:(Array.unsafe_get ad (a0 + !i + 1))
        ~t1:(Array.unsafe_get ad (a1 + !i + 1))
        ~t2:(Array.unsafe_get ad (a2 + !i + 1))
        ~t3:(Array.unsafe_get ad (a3 + !i + 1))
        ~x:bd ~x0 ~x1 ~x2 ~x3 ~len:b.cols;
      i := !i + 2
    done;
    for i = !i to hi - 1 do
      saxpy_row4 ~dst:od ~dbase:(i * dst.cols)
        ~s0:(Array.unsafe_get ad (a0 + i))
        ~s1:(Array.unsafe_get ad (a1 + i))
        ~s2:(Array.unsafe_get ad (a2 + i))
        ~s3:(Array.unsafe_get ad (a3 + i))
        ~x:bd ~x0 ~x1 ~x2 ~x3 ~len:b.cols
    done;
    k := !k + 4
  done;
  for k = k4 to khi - 1 do
    let abase = k * a.cols in
    let bbase = k * b.cols in
    for i = lo to hi - 1 do
      let aki = Array.unsafe_get ad (abase + i) in
      if aki <> 0. then
        saxpy_row ~dst:od ~dbase:(i * dst.cols) ~s:aki ~x:bd ~xbase:bbase
          ~len:b.cols
    done
  done

(* dst rows per pass of the i-blocked driver below: one stripe of [dst]
   stays hot across every sample instead of the whole gradient matrix
   being streamed once per 4-sample group. A multiple of 4, so block
   starts stay 4-aligned and the i4/i2 variant boundaries inside each
   block coincide with the full sweep's. Each stripe completes all
   samples in ascending order before the next stripe starts, so every
   cell's accumulation chain is unchanged — bit-identical. *)
let tn_ib = 64

(* With [zero] the chains start at +0 instead of the [dst] cells: the
   OCaml path fills the rows first, which gives the same bits. *)
let tn_range_ocaml ~zero ~dst a b ~klo ~khi ~lo ~hi =
  if zero then Array.fill dst.data (lo * dst.cols) ((hi - lo) * dst.cols) 0.;
  let i = ref lo in
  while !i < hi do
    let bhi = min hi (!i + tn_ib) in
    mat_mul_tn_acc_block ~dst a b ~klo ~khi ~lo:!i ~hi:bhi;
    i := bhi
  done

let tn_range ~zero ~dst a b ~klo ~khi ~lo ~hi =
  if avx2 then
    c_tn dst.data a.data b.data klo khi a.cols b.cols lo hi (Bool.to_int zero)
  else tn_range_ocaml ~zero ~dst a b ~klo ~khi ~lo ~hi

(* Flops per output row of a tn call over [samples] samples. *)
let mat_mul_tn_row_flops ~samples b = 2 * samples * b.cols

(* The sample range [klo, khi) of a tn call: every row by default. *)
let sample_range name a = function
  | None -> (0, a.rows)
  | Some (klo, khi) ->
      if klo < 0 || klo >= khi || khi > a.rows then
        invalid_arg ("Mat." ^ name ^ ": samples");
      (klo, khi)

let tn_dispatch name ~zero ?samples ~dst a b =
  if a.rows <> b.rows then invalid_arg ("Mat." ^ name ^ ": dims");
  if dst.rows <> a.cols || dst.cols <> b.cols then
    invalid_arg ("Mat." ^ name ^ ": dst");
  let klo, khi = sample_range name a samples in
  match
    plan_chunks ~rows:a.cols
      ~row_flops:(mat_mul_tn_row_flops ~samples:(khi - klo) b)
  with
  | Some chunk ->
      Canopy_util.Pool.parallel_for_chunks ~chunk a.cols (fun ~lo ~hi ->
          tn_range ~zero ~dst a b ~klo ~khi ~lo ~hi)
  | None -> tn_range ~zero ~dst a b ~klo ~khi ~lo:0 ~hi:a.cols

let mat_mul_tn_acc ~dst a b = tn_dispatch "mat_mul_tn_acc" ~zero:false ~dst a b

let mat_mul_tn ?samples ~dst a b =
  tn_dispatch "mat_mul_tn" ~zero:true ?samples ~dst a b

let add_row m v =
  if m.cols <> Array.length v then invalid_arg "Mat.add_row: dims";
  let d = m.data in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set d (base + j)
        (Array.unsafe_get d (base + j) +. Array.unsafe_get v j)
    done
  done

let col_sums name ~zero ?samples ~dst m =
  if m.cols <> Array.length dst then invalid_arg ("Mat." ^ name ^ ": dims");
  let lo, hi = sample_range name m samples in
  Elementwise.col_sum ~zero ~dst m.data ~cols:m.cols ~lo ~hi

let col_sum_acc ~dst m = col_sums "col_sum_acc" ~zero:false ~dst m
let col_sum ?samples ~dst m = col_sums "col_sum" ~zero:true ?samples ~dst m

let map_into ~dst f m =
  check_same "map_into" dst m;
  for i = 0 to Array.length m.data - 1 do
    dst.data.(i) <- f m.data.(i)
  done

let set_row m i v =
  if i < 0 || i >= m.rows then invalid_arg "Mat.set_row: index";
  if Array.length v <> m.cols then invalid_arg "Mat.set_row: dims";
  Array.blit v 0 m.data (i * m.cols) m.cols

let of_rows rows_a =
  let n = Array.length rows_a in
  if n = 0 then invalid_arg "Mat.of_rows: empty";
  let cols = Array.length rows_a.(0) in
  if cols = 0 then invalid_arg "Mat.of_rows: empty row";
  let m = create ~rows:n ~cols in
  for i = 0 to n - 1 do
    set_row m i rows_a.(i)
  done;
  m

let sub_rows m ~lo ~hi =
  if lo < 0 || hi > m.rows || lo >= hi then invalid_arg "Mat.sub_rows: range";
  {
    rows = hi - lo;
    cols = m.cols;
    data = Array.sub m.data (lo * m.cols) ((hi - lo) * m.cols);
  }

(* A one-row matrix over the caller's vector: no copy, so it aliases
   [v] the way [scratch_mat] aliases its arena. *)
let row_view v =
  if Array.length v = 0 then invalid_arg "Mat.row_view: empty";
  { rows = 1; cols = Array.length v; data = v }

(* A matrix over a scratch-arena buffer: same uninitialized-contents
   contract as [create_uninit], same ownership rules as [Scratch.get]
   (the returned matrix aliases the arena — it is a workspace, not a
   value to retain across further [get]s on the same slot). *)
let scratch_mat scratch ~slot ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.scratch_mat: dims";
  { rows; cols; data = Scratch.get scratch ~slot ~len:(rows * cols) }

let approx_equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       for i = 0 to Array.length a.data - 1 do
         if not (Canopy_util.Mathx.approx_equal ~eps a.data.(i) b.data.(i))
         then ok := false
       done;
       !ok
     end

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "%a@," Vec.pp (row m i)
  done;
  Format.fprintf ppf "@]"

let raw m = m.data

(* The range kernels on their own, shape- and range-checked, so the
   tests can hold the C kernels to the OCaml ones at every shape. *)
module Kernel = struct
  let check name ~ok ~rows ~lo ~hi =
    if not ok then invalid_arg ("Mat.Kernel." ^ name ^ ": dims");
    if lo < 0 || lo > hi || hi > rows || lo land 3 <> 0 then
      invalid_arg ("Mat.Kernel." ^ name ^ ": range")

  let check_avx2 name =
    if not avx2 then invalid_arg ("Mat.Kernel." ^ name ^ ": no AVX2")

  let nt_ok ~dst a b bias =
    a.cols = b.cols && dst.rows = a.rows && dst.cols = b.rows
    && match bias with None -> true | Some v -> Array.length v = b.rows

  let nn_ok ~dst a b = a.cols = b.rows && dst.rows = a.rows && dst.cols = b.cols
  let tn_ok ~dst a b = a.rows = b.rows && dst.rows = a.cols && dst.cols = b.cols

  let nt_ocaml ~dst a b bias ~lo ~hi =
    check "nt_ocaml" ~ok:(nt_ok ~dst a b bias) ~rows:a.rows ~lo ~hi;
    nt_range_ocaml ~dst a b ~bias ~lo ~hi

  let nn_ocaml ~dst a b ~lo ~hi =
    check "nn_ocaml" ~ok:(nn_ok ~dst a b) ~rows:a.rows ~lo ~hi;
    nn_range_ocaml ~dst a b ~lo ~hi

  let tn_ocaml ?samples ?(zero = false) ~dst a b ~lo ~hi =
    check "tn_ocaml" ~ok:(tn_ok ~dst a b) ~rows:a.cols ~lo ~hi;
    let klo, khi = sample_range "Kernel.tn_ocaml" a samples in
    tn_range_ocaml ~zero ~dst a b ~klo ~khi ~lo ~hi

  let nt_avx2 ~dst a b bias ~lo ~hi =
    check_avx2 "nt_avx2";
    check "nt_avx2" ~ok:(nt_ok ~dst a b bias) ~rows:a.rows ~lo ~hi;
    nt_c ~dst a b ~bias (nt_pack b ~inner:a.cols) ~lo ~hi

  let nn_avx2 ~dst a b ~lo ~hi =
    check_avx2 "nn_avx2";
    check "nn_avx2" ~ok:(nn_ok ~dst a b) ~rows:a.rows ~lo ~hi;
    nn_range ~dst a b ~lo ~hi

  let tn_avx2 ?samples ?(zero = false) ~dst a b ~lo ~hi =
    check_avx2 "tn_avx2";
    check "tn_avx2" ~ok:(tn_ok ~dst a b) ~rows:a.cols ~lo ~hi;
    let klo, khi = sample_range "Kernel.tn_avx2" a samples in
    tn_range ~zero ~dst a b ~klo ~khi ~lo ~hi
end
