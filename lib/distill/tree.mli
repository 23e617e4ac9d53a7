(** Piecewise-affine regression tree: the distilled serving policy.

    A tree is a flat array of nodes.  Internal node [i] routes an input [x]
    to the left child when [x.(feature.(i)) < threshold.(i)] and to the
    right child otherwise; every leaf carries an affine model
    [coef . x + bias].  Because each leaf's region is an axis-aligned box
    (the conjunction of the split half-spaces on its root path) and the
    leaf model is a single affine stage, interval bounds over a leaf are
    {e exact} (attained at a box corner), which is what
    [Canopy.Certify.certify_tree] exploits. *)

type t

val in_dim : t -> int
(** Input dimensionality (flattened observation history). *)

val out_dim : t -> int
(** Always [1]: the tree predicts the scalar cwnd action. *)

val n_nodes : t -> int
val n_leaves : t -> int
val depth : t -> int
(** Maximum root-to-leaf path length (0 for a single-leaf tree). *)

val build :
  in_dim:int ->
  feature:int array ->
  threshold:float array ->
  left:int array ->
  right:int array ->
  leaf:int array ->
  coef:float array ->
  bias:float array ->
  t
(** Assemble a tree from flat arrays.  [feature.(i) >= 0] marks an internal
    node with children [left.(i)]/[right.(i)]; [feature.(i) = -1] marks a
    leaf whose model index is [leaf.(i)].  [coef] is row-major
    [n_leaves * in_dim]; [bias] has length [n_leaves].  Children must have
    larger indices than their parent (node [0] is the root) so evaluation
    terminates, and every other node must have exactly one parent, so the
    nodes form a tree and each leaf has one root path.  Raises
    [Invalid_argument] on any structural violation. *)

val constant : in_dim:int -> float -> t
(** Single-leaf tree returning the given constant. *)

val predict : t -> float array -> float
(** Route [x] to its leaf and evaluate the affine model.  Raw model output:
    callers clamp to the action range exactly as for the MLP. *)

val predict_into : t -> src:float array -> src_off:int -> float
(** [predict] over a row embedded in a larger flat buffer (row starts at
    [src_off]).  Bit-identical to [predict] on a copied row. *)

val predict_rows_into : dst:Canopy_tensor.Mat.t -> t -> Canopy_tensor.Mat.t -> unit
(** Batched serving: row [i] of [dst] (a [rows x 1] matrix) receives
    [predict] of row [i] of [x].  Pool-parallel over row chunks for large
    batches; bit-identical to the sequential loop (and to [predict] per
    row) at any domain count. *)

val output_interval :
  ?exact:bool ->
  t ->
  lo:float array ->
  hi:float array ->
  Canopy_absint.Interval.t
(** Bound the tree output over the input box [\[lo.(j), hi.(j)\]] per
    dimension (both of length [in_dim]).  Raises [Invalid_argument] on a
    length mismatch or when some [lo.(j) <= hi.(j)] fails (including NaN
    corners).  It runs {!output_intervals}' bound on one box in which no
    column varies.

    Each leaf's region is an axis-aligned cell, the conjunction of the
    split half-spaces on its root path, closed on both sides: the boundary
    [x = threshold] belongs to both children, a measure-zero
    over-approximation that keeps every bound sound.

    With [~exact:true] (default), one depth-first descent from the root
    tightens the cell split by split and prunes every subtree whose cell
    misses the box; each reached leaf's affine model is bounded over the
    {e intersection} of the box with its cell — tight for one affine
    stage, accumulated in [predict]'s term order — so the result is the
    exact hull of reachable leaf ranges (up to closed-boundary ties).
    Leaves on contradictory paths are never reached.  Cost: O(visited
    nodes + reached leaves * in_dim).  With [~exact:false] every leaf is
    bounded over the whole input box with no cell intersection — the
    conservative reading a structure-blind engine would produce, O(n_leaves
    * in_dim).  The exact interval is always contained in the conservative
    one. *)

val output_intervals :
  ?exact:bool ->
  t ->
  Canopy_absint.Box.set ->
  out_lo:float array ->
  out_hi:float array ->
  unit
(** {!output_interval} of a factored set of boxes ({!Canopy_absint.Box.set},
    a certificate's component boxes): box [k] spans [\[s − 0, s + 0\]] on
    each shared column, [s] the set's point (so a −0 coordinate spans
    [\[−0, +0\]]), and [\[c − e, c + e\]] on each varying column, from its
    own center [c] and radius [e].  Its bound goes to [out_lo.(k)] and
    [out_hi.(k)] with the bits [output_interval] gives those corners
    alone.  One descent over the hull of the boxes reaches every leaf some
    box's descent would; at each, only the boxes whose varying columns
    all meet the leaf's cell are bounded, and a shared column has its
    term formed once per leaf.  Raises [Invalid_argument] unless the set
    passes {!Canopy_absint.Box.check_set} at [in_dim] (["...: shape"] or
    ["...: deviation"]), every corner is ordered and NaN-free
    (["...: bad box"]), and the outputs hold at least [rows] cells. *)

val to_string : t -> string
(** Serialize in the ["canopy-tree v1"] checkpoint format: a magic line,
    integer header lines, then one line per node and per leaf model with
    floats rendered as ["%h"] hex so round-trips are bit-exact. *)

val of_string : string -> t
(** Strict parser for [to_string] output.  Fails ([Failure]) on a bad magic
    line, malformed numbers, wrong counts, structural violations, or
    trailing garbage. *)

val save : string -> t -> unit
(** Atomically write (stage + rename) the checkpoint to [path]. *)

val load : string -> t
(** Read and [of_string] a checkpoint file. *)
