(** Bounded-horizon temporal verification — the Section-8 "richer
    properties" direction.

    The paper's per-step properties constrain one decision at a time;
    temporal properties regulate {e sequences} of decisions, which
    requires a model of how the environment evolves between steps. This
    module verifies properties of the form

    {e "if the normalized queueing delay stays inside the case's region
    for the next [horizon] monitoring steps, the congestion window never
    rises above (large-delay case) / falls below (small-delay case) its
    starting value at any of those steps"}

    by abstractly unrolling the closed loop: at each future step the
    agent state is shifted by one frame whose delay dimension carries the
    case's whole precondition interval, the policy is propagated with the
    chosen abstract domain, the window is pushed through Eq. 1, and the
    backbone suggestion evolves inside an {e interval environment model}
    ([cwnd_tcp] drifts by at most a relative [cwnd_tcp_drift] per step;
    the non-delay features wander by at most [feature_slack] per step
    around their last observed values).

    The result is sound {e relative to the environment model}: any
    concrete trajectory whose backbone drift and feature wander stay
    within the stated bounds is covered by the per-step intervals. *)

open Canopy_nn
open Canopy_absint

type env_model = {
  cwnd_tcp_drift : float;
      (** per-step relative bound on the backbone's window adjustment
          between monitoring steps (Cubic moves slowly at this timescale) *)
  feature_slack : float;
      (** per-step absolute wander allowed on each non-delay feature *)
}

type step_bound = {
  step : int;  (** 1-based future step index *)
  action : Interval.t;  (** abstract action at that step *)
  cwnd : Interval.t;  (** abstract enforced window *)
  delta_vs_start : Interval.t;  (** cwnd − starting window *)
  distance : float;  (** Eq.-7 distance of [delta_vs_start] vs the target *)
  certified : bool;
}

type t = {
  case : Property.case;
  horizon : int;
  steps : step_bound list;  (** one bound per future step, in order *)
  certified : bool;  (** all steps certified *)
  r_verifier : float;  (** mean per-step distance (a smooth signal) *)
}

val verify :
  ?env_model:env_model ->
  ?domain:Certify.domain ->
  actor:Mlp.t ->
  property:Property.t ->
  case:Property.case ->
  horizon:int ->
  history:int ->
  state:float array ->
  cwnd_tcp:float ->
  unit ->
  t
(** [env_model] defaults to drift 0.1, slack 0.05; [domain] to the box
    domain, on the batched verifier-IR engine. Raises
    [Invalid_argument] for a robustness property or the [Noise] case
    (temporal unrolling is defined for the performance cases), for
    [horizon <= 0], or on dimension mismatches. *)
