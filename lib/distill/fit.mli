(** CART-style fitting of a piecewise-affine regression tree.

    Splits greedily maximize variance reduction of the target (best-first
    over all frontier leaves, so the leaf budget goes where it pays most);
    each final leaf gets a ridge-regularized least-squares affine model
    (Tikhonov strength 1e-6). No split goes deeper than 8, and at most 32
    threshold candidates are tried per feature. Fully deterministic: no
    randomness, ties broken by lowest feature / candidate index. *)

type config = {
  max_leaves : int;  (** total leaf budget (default 64) *)
  min_samples_leaf : int;  (** both children must keep this many (default 32) *)
}

val default_config : config

val fit :
  ?config:config -> xs:Canopy_tensor.Mat.t -> ys:float array -> unit -> Tree.t
(** Fit on rows of [xs] (one sample per row) against targets [ys].
    Raises [Invalid_argument] on empty data or mismatched lengths. *)

val mse : Tree.t -> xs:Canopy_tensor.Mat.t -> ys:float array -> float
(** Mean squared error of [Tree.predict] over the samples. *)
