(** The per-interval network observation of Table 1 and its normalized
    feature encoding.

    Each monitoring interval yields one observation; the agent state is
    the concatenation of the most recent [k] observations' feature
    vectors. The normalized queuing delay (feature index
    {!delay_index}) is defined as [qdelay / (qdelay + minRTT) =
    qdelay / RTT = 1 − invRTT ∈ [0,1)], which ties the property
    thresholds of Section 6.1 to the invRTT quantity plotted in the
    paper's figures: p = 0.75 means qdelay > 3·minRTT, q = 0.25 means
    qdelay < minRTT/3. *)

type t = {
  thr_mbps : float;  (** THR: average throughput over the interval *)
  loss_pkts : int;  (** packets lost during the interval *)
  avg_qdelay_ms : float;  (** DELAY: average queuing delay of ACKed packets *)
  n_acks : int;  (** n: valid acknowledgements in the interval *)
  interval_ms : int;  (** m: time since the previous report *)
  srtt_ms : float;  (** smoothed RTT *)
  cwnd_pkts : float;  (** effective window during the interval *)
  min_rtt_ms : float;  (** link propagation RTT, for normalization *)
}

val feature_count : int
(** Features per observation frame (7). *)

val delay_index : int
(** Index of the normalized-delay feature inside a frame (0) — the
    dimension the verifier abstracts. *)

val normalized_delay : t -> float
(** [qdelay / (qdelay + minRTT)] in [\[0,1)]. *)

val delay_norm_of_qdelay : qdelay_ms:float -> min_rtt_ms:float -> float
val qdelay_of_delay_norm : delay_norm:float -> min_rtt_ms:float -> float
(** Inverse of {!delay_norm_of_qdelay} on [\[0,1)]. *)

val to_features : thr_scale_mbps:float -> t -> float array
(** Normalized feature frame. [thr_scale_mbps] is the running maximum
    throughput (Orca's THR_max) used to scale the throughput feature. All
    features land in [\[0,1\]]. *)

val features_into : thr_scale_mbps:float -> t -> dst:float array -> off:int -> unit
(** {!to_features} written into [dst.(off .. off+feature_count-1)]
    (identical values, no allocation) — the batched observation-assembly
    path of the fleet's decision tick. Raises [Invalid_argument] when
    the slice is out of bounds. *)

val zero_features : float array
(** All-zero frame used to pad the history before [k] intervals have
    elapsed. *)
