(** Deterministic domain pool: the single parallel-execution layer.

    A pool owns a fixed set of worker domains, spawned once and reused for
    every parallel region until {!shutdown}. All parallelism in the tree
    funnels through this module (the [raw-domain-spawn] lint rule rejects
    bare [Domain.spawn] elsewhere), and every entry point obeys one
    invariant:

    {b chunk boundaries are a pure function of the input size} — never of
    the domain count, the scheduler, or timing. Workers race only for
    {i which} chunk they execute next; the set of chunks, the work inside
    each chunk, and the slots each chunk writes are fixed up front. A path
    whose chunks write disjoint outputs with the same per-chunk operation
    order as its sequential reference is therefore bit-identical to that
    reference at any domain count, including 1 (see DESIGN §10).

    Pools are not reentrant: parallel entry points raise
    [Invalid_argument] when called from inside a pool task. Library code
    that may run on either side uses {!in_task} to fall back to its
    sequential kernel instead. *)

type t
(** A pool handle. Usable from the domain that created it. *)

val create : ?domains:int -> unit -> t
(** [create ()] spawns a pool of [domains - 1] worker domains; the caller
    participates in every parallel region, so [domains] is the total
    parallelism. Sizing, first match wins: the [?domains] argument, the
    [CANOPY_DOMAINS] environment variable, then
    [Domain.recommended_domain_count ()]. Values are clamped to at least
    1; [domains = 1] spawns no workers and runs every region inline (the
    degenerate pool is still valid and bit-identical). *)

val domains : t -> int
(** Total parallelism of the pool: worker domains + the calling domain. *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent. Further parallel calls on the
    pool raise [Invalid_argument]. *)

val default : unit -> t
(** The ambient pool, created on first use with [create ()] (so
    [CANOPY_DOMAINS] sizes it) and torn down [at_exit]. Library code
    (GEMM kernels, the certificate engine, evaluation sweeps) uses this
    pool when no explicit one is given. *)

val set_default : t -> unit
(** Replace the ambient pool (the previous default, if any, keeps running
    until {!shutdown} — benchmarks swap sized pools in and out around
    measurements). *)

val in_task : unit -> bool
(** True while the current domain is executing a pool task (including the
    caller's own participation and the inline degenerate path). Kernels
    with a parallel fast path must check this and take their sequential
    reference instead of re-entering the pool. *)

val parallel_for_chunks :
  ?pool:t -> chunk:int -> int -> (lo:int -> hi:int -> unit) -> unit
(** [parallel_for_chunks ~chunk n f] covers [0 .. n-1] with the fixed
    chunks [\[0,chunk)], [\[chunk,2·chunk)], …, [\[·,n)] and calls
    [f ~lo ~hi] exactly once per chunk, each chunk on exactly one domain.
    The chunk list depends only on [n] and [chunk]. [f] must write only
    state owned by its chunk. Exceptions raised by chunks are re-raised
    in the caller — deterministically the one from the lowest-numbered
    chunk — and the pool remains usable. Raises [Invalid_argument] if
    [chunk <= 0], [n < 0], or when called from inside a pool task. *)

val map : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], one task per element (elements are assumed
    coarse: links to evaluate, environments to build). Results are placed
    in input order; [f] runs exactly once per element. Same exception and
    reentrancy contract as {!parallel_for_chunks}. *)

val map_list : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)
