(** Element-wise passes over flat float arrays: of the training step
    (leaky ReLU forward and backward, the batch-norm training forward and
    backward, column sums, Adam, and two vector updates) and of the
    certifier (leaky ReLU over center–radius intervals).

    Each entry runs an AVX2 C kernel when {!avx2} holds and its OCaml
    loop ({!Ocaml}) otherwise. In a kernel one vector lane is one cell
    running exactly the loop's IEEE operations in the same order, with
    no contraction into fused multiply-adds, so both paths give the same
    bits for every input, ±0, ±∞, NaN and subnormals included (a NaN
    result may carry a different payload). The kernels allocate nothing.
    Every entry raises [Invalid_argument] on a length mismatch, before
    touching any array. *)

val avx2 : bool
(** Whether the AVX2 C kernels run, here and in [Mat]'s GEMMs: chosen
    once at start-up from the CPU and the float array layout. *)

val leaky : slope:float -> float array -> dst:float array -> unit
(** [dst.(i) <- x.(i) *. (if x.(i) >= 0. then 1. else slope)], which has
    the bits of [if v >= 0. then v else slope *. v]. [dst] may be [x]. *)

val leaky_backward :
  slope:float -> out:float array -> dout:float array -> dst:float array -> unit
(** [dst.(i) <- dout.(i) *. (if Float.sign_bit out.(i) then slope else
    1.)]: the mask is the sign bit of the forward's output, which is the
    input's, so −0, a negative NaN and a negative input whose slope
    product underflows to −0 take the slope. [dst] may be [dout]. *)

val interval_leaky :
  slope:float -> center:float array -> radius:float array -> unit
(** The interval image of leaky ReLU over center–radius cells, in place:
    with [l = c − r], [h = c + r] and [f v = if v >= 0. then v else
    slope *. v], [center.(i) <- 0.5 *. (f h +. f l)] and
    [radius.(i) <- 0.5 *. (f h -. f l)]. The two arrays must be distinct. *)

val add_into : dst:float array -> float array -> unit
(** [dst.(i) <- dst.(i) +. src.(i)]. *)

val lerp_into :
  keep:float -> tau:float -> src:float array -> dst:float array -> unit
(** [dst.(i) <- (keep *. dst.(i)) +. (tau *. src.(i))]. *)

val adam :
  beta1:float ->
  one_m_b1:float ->
  beta2:float ->
  one_m_b2:float ->
  step_size:float ->
  eps:float ->
  value:float array ->
  grad:float array ->
  m:float array ->
  v:float array ->
  unit
(** One Adam step per cell: [m <- beta1·m + one_m_b1·g],
    [v <- beta2·v + one_m_b2·g·g] and
    [value <- value − step_size·m / (sqrt v + eps)], in that
    association. *)

val col_sum :
  zero:bool ->
  dst:float array ->
  float array ->
  cols:int ->
  lo:int ->
  hi:int ->
  unit
(** Column sums of rows [lo..hi-1] of a row-major matrix with [cols]
    columns: each [dst.(j)] is one chain over ascending rows, seeded
    with +0 when [zero] and with [dst.(j)] otherwise. *)

val bn_stats :
  float array ->
  mu:float array ->
  var:float array ->
  rows:int ->
  dim:int ->
  unit
(** Batch-norm statistics of a [rows × dim] batch ([rows >= 1]), per
    column over ascending rows from +0:
    [mu += (1/rows)·x] then [var += (x − mu)² / rows]. *)

val bn_normalize :
  float array ->
  mu:float array ->
  inv_std:float array ->
  gamma:float array ->
  beta:float array ->
  xhat:float array ->
  out:float array ->
  rows:int ->
  dim:int ->
  unit
(** [xhat <- (x − mu)·inv_std] and [out <- gamma·xhat + beta] per cell.
    [out] may be [x]; [xhat] must be neither. *)

val bn_backward_sums :
  param_grads:bool ->
  dout:float array ->
  xhat:float array ->
  gamma:float array ->
  dgamma:float array ->
  dbeta:float array ->
  s1:float array ->
  s2:float array ->
  rows:int ->
  dim:int ->
  unit
(** The column sums of the batch-norm backward, over ascending rows:
    with [gh = dout·gamma], [s1 <- Σ gh] and [s2 <- Σ gh·xhat] from +0,
    and when [param_grads] also [dgamma += dout·xhat], [dbeta += dout]. *)

val bn_backward_dx :
  dout:float array ->
  xhat:float array ->
  gamma:float array ->
  inv_std:float array ->
  s1:float array ->
  s2:float array ->
  dx:float array ->
  rows:int ->
  dim:int ->
  unit
(** [dx <- (inv_std / n)·((n·dout·gamma − s1) − xhat·s2)] per cell, with
    [n = rows] and [inv_std / n] formed once per column (the same value
    per cell). [dx] may be [dout], never [xhat]. *)

(** The OCaml loops: the path on hosts without AVX2 and the oracle the
    C kernels are tested against. Same contracts as above. *)
module Ocaml : sig
  val leaky : slope:float -> float array -> dst:float array -> unit

  val leaky_backward :
    slope:float ->
    out:float array ->
    dout:float array ->
    dst:float array ->
    unit

  val interval_leaky :
    slope:float -> center:float array -> radius:float array -> unit

  val add_into : dst:float array -> float array -> unit

  val lerp_into :
    keep:float -> tau:float -> src:float array -> dst:float array -> unit

  val adam :
    beta1:float ->
    one_m_b1:float ->
    beta2:float ->
    one_m_b2:float ->
    step_size:float ->
    eps:float ->
    value:float array ->
    grad:float array ->
    m:float array ->
    v:float array ->
    unit

  val col_sum :
    zero:bool ->
    dst:float array ->
    float array ->
    cols:int ->
    lo:int ->
    hi:int ->
    unit

  val bn_stats :
    float array ->
    mu:float array ->
    var:float array ->
    rows:int ->
    dim:int ->
    unit

  val bn_normalize :
    float array ->
    mu:float array ->
    inv_std:float array ->
    gamma:float array ->
    beta:float array ->
    xhat:float array ->
    out:float array ->
    rows:int ->
    dim:int ->
    unit

  val bn_backward_sums :
    param_grads:bool ->
    dout:float array ->
    xhat:float array ->
    gamma:float array ->
    dgamma:float array ->
    dbeta:float array ->
    s1:float array ->
    s2:float array ->
    rows:int ->
    dim:int ->
    unit

  val bn_backward_dx :
    dout:float array ->
    xhat:float array ->
    gamma:float array ->
    inv_std:float array ->
    s1:float array ->
    s2:float array ->
    dx:float array ->
    rows:int ->
    dim:int ->
    unit
end
