(** Differential soundness audit — a sanitizer for the verifier itself.

    For every primitive abstract transformer F in [lib/absint] (interval
    arithmetic, box affine maps, zonotope relaxations, and the full
    IBP/zonotope passes over random MLPs), and for the distilled tree's
    exact bound over random trees, samples concrete points x inside
    random abstract inputs X and asserts [f(x) ∈ γ(F(X))]. Any
    escape is reported with the offending op, the inputs, the witness
    point and the run seed, so it can be replayed deterministically.

    Scalar interval transformers and the tree bound are checked with
    exact containment (IEEE-754 rounding is monotone, so an escape is a
    real soundness bug); matrix and network passes allow a 1e-9 relative
    tolerance for reassociation noise. *)

type violation = { op : string; trial : int; seed : int; detail : string }

type result = {
  samples : int;  (** total point checks performed *)
  per_op : (string * int) list;  (** samples spent on each transformer *)
  violation_count : int;  (** true number of violations *)
  violations : violation list;  (** reported subset, capped at [max_report] *)
}

val op_names : string list
(** The audited transformers, e.g. ["interval.mul"], ["ibp.mlp"],
    ["tree.exact"]. *)

val run : ?seed:int -> ?max_report:int -> samples:int -> unit -> result
(** Distribute [samples] point checks round-robin over all transformers.
    Deterministic for a fixed [seed] (default 2026). Requires
    [samples > 0]. *)

val pp_violation : Format.formatter -> violation -> unit
