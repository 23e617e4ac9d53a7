(** Serving policy: the one dispatch point shared by scalar ([Eval]) and
    fleet ([Fleet_eval]) serving, so the two paths cannot drift.

    A policy is either the trained MLP actor or its distilled
    piecewise-affine tree ([Canopy_distill.Tree]).  Both produce a raw
    scalar action per observation row; callers clamp to [\[-1, 1\]]
    identically for both kinds. *)

type t = [ `Mlp of Canopy_nn.Mlp.t | `Tree of Canopy_distill.Tree.t ]

val in_dim : t -> int
val out_dim : t -> int

val predict_rows_into :
  dst:Canopy_tensor.Mat.t -> t -> Canopy_tensor.Mat.t -> unit
(** Batched inference: row [i] of [dst] ([rows x out_dim]) receives the raw
    (unclamped) action for row [i] of the input.  Dispatches to
    [Mlp.forward_eval_into] or [Tree.predict_rows_into]; both are
    bit-identical across batch shapes and domain counts. *)
