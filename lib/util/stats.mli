(** Sample statistics used by the evaluation harness.

    The evaluation section of the paper reports averages, standard
    deviations and tail percentiles (p95 delay); this module computes
    those over collected samples. *)

val mean : float array -> float
(** Arithmetic mean; [0.] for the empty array. *)

val stddev : float array -> float
(** Sample standard deviation; [0.] with fewer than two samples. *)

val jain_index : float array -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)] over per-flow allocations:
    [1.] when every flow gets an equal share, [1/n] when a single flow
    hogs the whole resource. Degenerate inputs (empty array, or all
    allocations zero) report [1.] — an empty bottleneck is trivially
    fair. Uses typed float folds only. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]] using linear interpolation
    between closest ranks. The input array is not modified. Raises
    [Invalid_argument] on an empty array. *)

val histogram_percentile : int array -> n:int -> float -> float
(** [histogram_percentile counts ~n p] is [percentile xs p] for the [n]
    samples of which [counts.(v)] equal [float_of_int v] ([n] must be
    the sum of the counts): the same rank and interpolation arithmetic,
    reading its two order statistics by cumulative counts, with no
    per-sample array. Raises [Invalid_argument] when [n = 0], for [p]
    outside [\[0,100\]], and when the counts sum below [n]. *)
