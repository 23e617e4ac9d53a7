(** Dense row-major float matrices.

    Backs the fully-connected layers of the neural controller and the
    linear abstract transformers (|M| propagation of box deviations,
    Section 3.2 of the paper). *)

type t

val create : rows:int -> cols:int -> t
(** Zero matrix. *)

val create_uninit : rows:int -> cols:int -> t
(** Uninitialized matrix. Only for staging buffers whose every cell is
    overwritten before being read (e.g. the destinations of the [_into]
    kernels); reading a cell before writing it is unspecified. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
val of_arrays : float array array -> t
(** Rows must be non-empty and rectangular. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val copy : t -> t
val fill : t -> float -> unit
val row : t -> int -> Vec.t
(** Fresh copy of a row. *)

val transpose : t -> t
val add : t -> t -> t
val map : (float -> float) -> t -> t
val abs : t -> t
(** Element-wise absolute value (used by box-domain propagation). *)

val mat_vec : t -> Vec.t -> Vec.t
(** [mat_vec m x] is [m * x]; requires [cols m = dim x]. *)

val mat_mul : t -> t -> t

val mat_mul_into : dst:t -> t -> t -> unit
(** [mat_mul_into ~dst a b] computes [dst <- a·b] into the preallocated
    [dst] ([a.rows × b.cols]) without allocating. *)

val mat_mul_nt : t -> t -> t
(** [mat_mul_nt a b] is [a·bᵀ] ([a.rows × b.rows]); requires
    [cols a = cols b]. The batched dense forward: for a [batch × in]
    activation matrix [x] and an [out × in] weight matrix [w],
    [mat_mul_nt x w] is the [batch × out] pre-activation, with each row
    bit-identical to [mat_vec w row]. *)

val mat_mul_nt_into : dst:t -> t -> t -> unit
(** Allocation-free {!mat_mul_nt} into [dst] ([a.rows × b.rows]). *)

val mat_mul_nt_bias_into : dst:t -> t -> t -> Vec.t -> unit
(** [mat_mul_nt_bias_into ~dst a b bias] is [dst <- a·bᵀ] with [bias]
    (length [rows b]) added to every row ([dst] is [a.rows × b.rows]) —
    the fused dense forward [x·wᵀ + b]. The bias seeds the accumulator
    instead of being added after the dot product, so results differ
    from {!mat_mul_nt_into}-then-{!add_row} by rounding only. With
    {!mat_mul_nt_into} these are the two kernels of the batched
    abstract-interpretation engine: centers go through the bias form,
    radii through the plain [r·|W|ᵀ] form. *)

val mat_mul_tn_acc : dst:t -> t -> t -> unit
(** [mat_mul_tn_acc ~dst a b] accumulates [dst <- dst + aᵀ·b]; requires
    [rows a = rows b] and [dst] of shape [a.cols × b.cols]. The batched
    weight-gradient kernel ([dw += doutᵀ·x]). Each cell is one chain
    seeded with its [dst] value that adds the per-sample products in
    ascending sample order, so it matches a row-ascending sequence of
    outer-product accumulations (the per-sample oracle's, in
    [test/oracle.ml]) except where that oracle's skip of zero [y]
    entries shows (a −0 cell, a non-finite [x]). *)

val mat_mul_tn : ?samples:int * int -> dst:t -> t -> t -> unit
(** [mat_mul_tn ~dst a b] overwrites [dst <- aᵀ·b]: {!mat_mul_tn_acc}
    with every chain seeded with +0 instead of its [dst] cell, so the
    bits of filling [dst] with zeros and then accumulating.

    [~samples:(lo, hi)] sums only the samples (rows of [a] and [b])
    [lo..hi-1], with the bits of the same call on a copy of those rows:
    the kernel's 4-sample groups start at [lo] and its zero-skip cut-off
    comes from [hi - lo]. Raises [Invalid_argument] unless
    [0 <= lo < hi <= rows a]. The per-shard weight-gradient sums of a
    full-batch backward ([Layer.backward ~shards]). *)

val gemm_kernel : unit -> string
(** ["avx2"] when the GEMM inner loops above run in the AVX2 C kernels,
    ["ocaml"] when they run in OCaml (no AVX2, or float arrays not
    stored flat). Fixed at program start; both give the same bits. *)

(** {2 Parallel dispatch}

    {!mat_mul_into}, {!mat_mul_nt_into} / {!mat_mul_nt_bias_into} and
    {!mat_mul_tn_acc} fan large calls out over
    [Canopy_util.Pool.default ()] as row-range chunks. Chunk boundaries
    are a pure function of the matrix shapes and the grain below, each
    output row is written by exactly one chunk, and the
    per-row operation order equals the sequential kernel's — so results
    are bit-identical at every domain count (DESIGN §10). Calls made
    from inside a pool task, or below the flop threshold, take the
    sequential path. The grain is process-global and not intended to
    be changed concurrently with running kernels. *)

val set_parallel_grain : min_flops:int -> chunk_flops:int -> unit
(** [set_parallel_grain ~min_flops ~chunk_flops] tunes the dispatch: a
    kernel call goes parallel only when its total flop count reaches
    [min_flops], and rows are grouped into chunks of roughly
    [chunk_flops] (rounded up to a multiple of 4 rows, preserving the
    register-block alignment). The grain starts at [(262_144, 65_536)].
    Raises [Invalid_argument] if [min_flops < 0] or [chunk_flops <= 0].
    A test/bench hook: lowering it makes small shapes fan out. *)

val parallel_grain : unit -> int * int
(** Current [(min_flops, chunk_flops)]. *)

val plan_chunks : rows:int -> row_flops:int -> int option
(** The single chunk planner behind every pool consumer (this module's
    dispatchers, [Anet]/[Zonotope] box sweeps): [Some chunk] when a
    workload of [rows] rows at [row_flops] flops each should fan out
    over [Pool.default ()] in chunks of [chunk] rows (a multiple of 4),
    [None] for the sequential path — including when called from inside
    a pool task or when the pool has no workers. The decision and the
    chunk size depend only on the arguments and the process-global
    grain, never on the domain count. *)

val add_row : t -> Vec.t -> unit
(** [add_row m v] adds the row vector [v] to every row of [m] in place
    (bias broadcast); requires [cols m = dim v]. *)

val col_sum_acc : dst:Vec.t -> t -> unit
(** [col_sum_acc ~dst m] accumulates each column sum of [m] into [dst]
    ([dst.(j) += Σ_i m.(i).(j)], ascending [i]); the batched bias
    gradient. Runs [Elementwise.col_sum]. *)

val col_sum : ?samples:int * int -> dst:Vec.t -> t -> unit
(** {!col_sum_acc} with each chain seeded with +0: overwrites [dst] with
    the column sums, as {!mat_mul_tn} does the products.
    [~samples:(lo, hi)] sums rows [lo..hi-1] only, as {!mat_mul_tn}. *)

val map_into : dst:t -> (float -> float) -> t -> unit
(** Element-wise map into a preallocated matrix of the same shape
    ([dst] and the source may be the same matrix). *)

val set_row : t -> int -> Vec.t -> unit
(** [set_row m i v] overwrites row [i] of [m] with [v] (blit). *)

val of_rows : Vec.t array -> t
(** Pack an array of equal-length rows into a fresh [n × dim] matrix.
    Like {!of_arrays} but blit-based; rows must be non-empty. *)

val sub_rows : t -> lo:int -> hi:int -> t
(** [sub_rows m ~lo ~hi] copies rows [lo..hi-1] into a fresh
    [(hi-lo) × cols] matrix (e.g. one chunk of certificate boxes).
    Raises [Invalid_argument] unless [0 <= lo < hi <= rows m]. *)

val row_view : Vec.t -> t
(** [row_view v] is the one-row matrix over [v]'s own storage, without a
    copy: it aliases [v] as {!scratch_mat} aliases its arena, so writes
    through either show in both. The one-row input of a scalar forward
    ([Mlp.forward]). Raises [Invalid_argument] on an empty [v]. *)

val scratch_mat : Canopy_util.Scratch.t -> slot:int -> rows:int -> cols:int -> t
(** A matrix over a scratch-arena buffer: the data array is
    [Scratch.get scratch ~slot ~len:(rows*cols)], so contents are
    unspecified (as {!create_uninit}) and the matrix aliases the arena —
    a workspace to fully overwrite and consume before the next [get] on
    the same slot, never a value to retain. *)

val mat_mul_nt_row_flops : t -> t -> int
(** Flops per output row of [mat_mul_nt a b] (bias form included). The
    kernels own their cost model: call sites planning chunks must use
    this instead of restating the formula. *)

val approx_equal : ?eps:float -> t -> t -> bool

(** The range kernels behind {!mat_mul_nt_bias_into} / {!mat_mul_nt_into}
    ([nt], [bias = None] for the plain form), {!mat_mul_into} ([nn]) and
    {!mat_mul_tn_acc} ([tn]), over output rows [[lo, hi)] with [lo] a
    multiple of 4 ([tn]'s output rows are [dst]'s, i.e. columns of
    [a]; its [?samples] is {!mat_mul_tn}'s, and [~zero:true] seeds
    every chain with +0 as {!mat_mul_tn} does). The [_ocaml] kernels are
    the path on hosts without AVX2 and the oracle the [_avx2] ones are
    tested against; the dispatchers pick
    between them. Each raises [Invalid_argument] on a shape or range
    mismatch, and the [_avx2] ones also when {!gemm_kernel} is not
    ["avx2"]. *)
module Kernel : sig
  val nt_ocaml : dst:t -> t -> t -> Vec.t option -> lo:int -> hi:int -> unit
  val nn_ocaml : dst:t -> t -> t -> lo:int -> hi:int -> unit
  val tn_ocaml :
    ?samples:int * int -> ?zero:bool -> dst:t -> t -> t -> lo:int -> hi:int -> unit
  val nt_avx2 : dst:t -> t -> t -> Vec.t option -> lo:int -> hi:int -> unit
  val nn_avx2 : dst:t -> t -> t -> lo:int -> hi:int -> unit
  val tn_avx2 :
    ?samples:int * int -> ?zero:bool -> dst:t -> t -> t -> lo:int -> hi:int -> unit
end

val raw : t -> float array
(** The underlying row-major storage, shared with the matrix. Mutating it
    mutates the matrix; exposed so optimizers can update parameters and
    their gradients uniformly as flat arrays. *)

val pp : Format.formatter -> t -> unit
