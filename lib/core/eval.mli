(** Evaluation harness for Section 6: run learned policies and TCP
    baselines over the trace suite, computing both the certified metrics
    (FCC, FCS — Section 6.1) and the empirical ones (utilization, average
    and p95 queueing delay, loss). *)

type result = {
  scheme : string;
  trace : string;
  utilization : float;
  avg_thr_mbps : float;
  avg_qdelay_ms : float;
  p95_qdelay_ms : float;
  loss_rate : float;
  fcc : float option;  (** mean fraction of certified components per step *)
  fcs : float option;  (** fraction of steps with a fully-satisfied certificate *)
  refuted : float option;
      (** among uncertified components across the run, the fraction with a
          concrete counterexample ([Some 0.] when every component was
          certified); [None] unless refutation was requested *)
}

val pp_result : Format.formatter -> result -> unit

type step_record = {
  t_ms : int;
  action : float;
  cwnd_tcp : float;
  cwnd_enforced : float;
  thr_mbps : float;
  qdelay_ms : float;
  delay_norm : float;  (** normalized delay of the newest frame (1−invRTT) *)
  raw_reward : float;
  certificate : Certify.t option;
}
(** Per-monitoring-step trajectory sample (Figs. 1, 2, 7, 9). *)

type link = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  bdp_multiplier : float;  (** buffer size in BDPs *)
  duration_ms : int;
}

val link : ?min_rtt_ms:int -> ?bdp:float -> ?duration_ms:int ->
  Canopy_trace.Trace.t -> link
(** Defaults: minRTT 40 ms, 2 BDP, trace duration. *)

val eval_policy :
  ?name:string ->
  ?noise:int * float ->
  ?certificate:Property.t * int ->
  ?refute_rng:Canopy_util.Prng.t ->
  ?shield:Shield.t ->
  ?impairments:Canopy_netsim.Env.impairments ->
  ?collect_steps:bool ->
  policy:Policy.t ->
  history:int ->
  link ->
  result * step_record list
(** Run the deterministic policy — the MLP actor or its distilled tree
    ([`Mlp] / [`Tree], see {!Policy}) — over the link. [noise (seed, mu)]
    perturbs the observed queueing delay as in Section 6.3;
    [certificate (property, n)] computes an n-component certificate at
    every step (the paper uses n = 50 for evaluation) on the batched
    verifier-IR engine; [refute_rng] additionally runs {!Certify.refute}
    over every uncertified component, threading that one PRNG through
    the whole run, and reports the refuted fraction in
    [result.refuted] (parallel sweeps hand each task a [Prng.split]
    child derived by task index before the fan-out); [shield] projects
    each action through a runtime {!Shield} before it is applied;
    [impairments] applies link pathologies (random loss, ACK jitter,
    reordering — the adversarial scenario engine's knobs) to the run,
    default none; [collect_steps] returns the per-step trajectory (with
    certificates when enabled).

    Certificates dispatch on the policy kind: [`Mlp] runs the abstract
    engine ({!Certify.certify}), [`Tree] the exact per-leaf bounds
    ({!Certify.certify_tree}).  Refutation only applies to [`Mlp] —
    tree certificates carry no abstraction slack to refute — so
    [result.refuted] is [None] for trees. *)

val eval_tcp :
  name:string -> (unit -> Canopy_cc.Controller.t) -> link -> result

val run_tasks : (unit -> result) list -> result list
(** [run_tasks tasks] evaluates independent sweep cells in parallel on
    the ambient pool ([Canopy_util.Pool.default ()]), returning results
    in task order.
    Each task must own its state — environments are built per task, and
    any per-task PRNG must be split from the master stream by task index
    {i before} calling this — which makes the sweep bit-identical to a
    sequential [List.map] at every domain count. *)

val cubic_scheme : unit -> Canopy_cc.Controller.t
val vegas_scheme : unit -> Canopy_cc.Controller.t
val bbr_scheme : unit -> Canopy_cc.Controller.t
val vivace_scheme : unit -> Canopy_cc.Controller.t

val mean_results : string -> result list -> result
(** Aggregate (arithmetic mean of every metric) over a list of per-trace
    results, e.g. all synthetic traces. The [string] names the group.
    Raises [Invalid_argument] on an empty list. *)

type coexist_spec =
  | Coexist_canopy of Policy.t
      (** a Canopy flow served by this policy (Cubic backbone, Eq. 1
          override at every decision tick) *)
  | Coexist_tcp of string * (unit -> Canopy_cc.Controller.t)
      (** a classical flow, e.g. [("cubic", cubic_scheme)] *)

type coexist_flow = {
  scheme : string;
  throughput_mbps : float;
  avg_qdelay_ms : float;
  loss_rate : float;
  share : float;  (** fraction of total delivered packets *)
}

type coexist_result = {
  trace : string;
  duration_ms : int;
  interval_ms : int;
  flows : coexist_flow array;  (** in the order the specs were given *)
  jain : float;  (** Jain's index over per-flow delivered counts *)
  utilization : float;
}

val pp_coexist : Format.formatter -> coexist_result -> unit

val eval_coexist :
  ?history:int ->
  ?arrivals:int array ->
  ?impairments:Canopy_netsim.Env.impairments ->
  flows:coexist_spec list ->
  link ->
  coexist_result
(** Run a mix of Canopy and classical flows contending on one shared
    link and report per-flow throughput/delay/loss plus Jain's fairness
    index — the Canopy-vs-Cubic/BBR coexistence experiment. The flows
    are [Canopy_orca.Fleet_env] flows on one link: each Canopy flow is
    an agent flow (the Cubic backbone and Eq. 1 override that train and
    serve), each classical flow a plain flow run by its controller.
    Each decision tick runs one {!Policy.predict_rows_into} pass per
    distinct underlying model (physical equality on the MLP or tree);
    when the link's duration is not a whole number of intervals, the
    last interval is the remainder. [arrivals.(i)] delays flow [i]'s first
    transmission (staggered competing-flow arrivals; default all flows
    start at 0; a negative entry or a length other than the flow count
    raises [Invalid_argument]); a Canopy flow takes no decision before
    its arrival (see [Fleet_env.step]). [impairments] applies link pathologies
    to the shared link, as in {!eval_policy}, default none. [history]
    defaults to 5 frames; the decision interval is
    [max 20 link.min_rtt_ms] (the [Agent_env] cadence). *)

type noise_delta = {
  scheme : string;
  d_avg_qdelay_pct : float;
  d_p95_qdelay_pct : float;
  d_utilization_pct : float;
}
(** Percentage change of each metric when noise is added (Fig. 12). *)

val noise_delta : clean:result -> noisy:result -> noise_delta
