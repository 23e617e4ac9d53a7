(** Drive a congestion controller over a trace and collect the metrics
    the paper's evaluation reports (Section 6.1): average utilization,
    average and p95 queueing delay, and loss rate. *)

type metrics = {
  scheme : string;
  trace : string;
  utilization : float;  (** delivered / offered capacity, 0..1 *)
  avg_throughput_mbps : float;
  avg_qdelay_ms : float;
  p95_qdelay_ms : float;
  avg_rtt_ms : float;
  loss_rate : float;
  delivered_pkts : int;
  dropped_pkts : int;
}

val run :
  trace:Canopy_trace.Trace.t ->
  min_rtt_ms:int ->
  buffer_pkts:int ->
  duration_ms:int ->
  (unit -> Controller.t) ->
  metrics
(** [run ~trace ... make_controller] simulates a fresh controller on a
    fresh, unimpaired link. The controller's window suggestion is
    applied to the link after every millisecond tick. *)

val buffer_of_bdp :
  bdp_multiplier:float ->
  trace:Canopy_trace.Trace.t ->
  min_rtt_ms:int ->
  int
(** Buffer sizing used throughout the evaluation: a multiple of the
    bandwidth-delay product at the trace's average rate (1 BDP = shallow,
    2 BDP = training default, 5 BDP = deep). At least one packet. *)
