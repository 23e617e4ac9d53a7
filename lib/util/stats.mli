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

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}
(** Batch summary of a sample. *)

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)
