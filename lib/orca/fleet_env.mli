(** The Orca RL environment, vectorized: N episodes, each a bottleneck
    link with a Cubic backbone whose window a learned agent modulates at
    coarse monitoring steps, over one [Canopy_netsim.Fleet].

    Each {!step} applies every flow's action [a ∈ \[-1,1\]] through
    Eq. 1 ([CWND = 2^{2a} · CWND_TCP]), enforces the resulting window
    for one monitoring interval while Cubic keeps performing
    fine-grained control inside it, and scores the interval's reward.
    The agent state of a flow is the concatenated feature frames of its
    past [history] observations. All flows' feature histories live in
    one flat block, {!write_states} assembles the whole fleet's states
    into one [flows × state_dim] matrix row block, and {!step} takes the
    whole fleet's actions at once — the shape [Mlp.forward_eval_into]
    needs to serve every flow with a single GEMM per decision tick.

    Flows may share links ([?link] of {!create}), and a flow may be a
    plain one, run by an ordinary controller with no agent: that is how
    [Eval.eval_coexist] pits Canopy against TCP on one bottleneck.
    Flows on separate links are independent: an N-flow fleet of N links
    reproduces N one-flow fleets bit-for-bit. [Agent_env] is the
    one-flow view. *)

type config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  buffer_pkts : int;
  duration_ms : int;  (** episode length *)
  history : int;  (** k past observation frames in the state *)
  interval_ms : int option;  (** monitoring period; default max(20, minRTT) *)
  delay_noise : (Canopy_util.Prng.t * float) option;
      (** multiplicative noise on the observed queueing delay *)
  impairments : Canopy_netsim.Env.impairments;
      (** link pathologies (random loss, ACK jitter, reordering) *)
  reward : Reward.config;
}
(** One episode. *)

val interval_of : config -> int
(** The decision interval: [interval_ms], or max(20, minRTT) when unset.
    Raises [Invalid_argument] on a non-positive interval. *)

val cwnd_of_action : action:float -> cwnd_tcp:float -> float
(** Eq. 1 with the simulator's window clamp: monotone in [action] for a
    fixed suggestion, which is what lets the verifier propagate action
    intervals through it exactly. *)

type t

val create :
  ?link:int array ->
  ?start_ms:int array ->
  ?plain:Canopy_cc.Controller.t option array ->
  config array ->
  t
(** One episode per config. All configs must agree on [history],
    decision interval and [duration_ms] (the batched tick runs the
    whole fleet on one cadence); traces, buffers, minRTTs, impairments
    and reward configs may differ per flow. [link] and [start_ms] go to
    [Canopy_netsim.Fleet.create] as they are: flows with equal
    [link.(i)] share one link and must agree on trace (physically),
    buffer and impairments; flow [i] sends nothing before
    [start_ms.(i)], and an agent flow takes no decision before then
    (see {!step}). [plain.(i) = Some c] makes flow [i] a plain flow:
    [c] takes its feedback and sets its window after every millisecond,
    and {!step} neither reads its action nor observes or scores it (its
    state row stays zero, and [cwnd_tcp], [prev_cwnd_enforced] and
    [thr_scale_mbps] mean nothing for it). Default: every flow on its
    own link from time 0, no plain flows. Raises [Invalid_argument] on
    an empty array, a non-positive history, duration or interval,
    heterogeneous cadence, a [plain] array whose length is not the flow
    count, or anything [Fleet.create] rejects. *)

val flows : t -> int
val interval_ms : t -> int

val state_dim : t -> int
(** [history × Observation.feature_count], per flow. *)

val fleet : t -> Canopy_netsim.Fleet.t
(** The underlying fleet, for per-flow link metrics. *)

val finished : t -> bool
val now_ms : t -> int
val thr_scale_mbps : t -> flow:int -> float
(** Running THR_max used for feature normalization. *)

val prev_cwnd_enforced : t -> flow:int -> float
(** The window enforced during the previous step (CWND_{i−1} of the
    performance property); equals the initial window before any step. *)

val cwnd_tcp : t -> flow:int -> float
(** Cubic's current window suggestion — the CWND_TCP that the next
    {!step}'s Eq. 1 will scale. The verifier uses this to turn an
    abstract action interval into an abstract CWND interval. *)

val state : t -> flow:int -> float array
(** Flow [flow]'s current state (oldest frame first). *)

val write_states : t -> dst:Canopy_tensor.Mat.t -> unit
(** Write every flow's state into row [i] of [dst]
    ([flows × state_dim]), with no allocation. *)

type step_result = {
  rewards : float array;
  cwnd_tcp : float array;  (** Cubic backbone window per flow, pre-override *)
  cwnd_enforced : float array;
      (** Eq. 1 window actually enforced (Cubic's before the flow starts) *)
  finished : bool;
}
(** All three arrays hold 0 at a plain flow. *)

val step :
  ?observe:(int -> Observation.t -> unit) ->
  ?ms:int ->
  t ->
  actions:float array ->
  step_result
(** Advance every flow by one decision interval under [actions.(i)] ∈
    [[-1,1]]; a plain flow's slot is not read and may hold anything,
    NaN included. An agent flow's action is applied (Eq. 1) only if the
    flow sends during the interval, i.e. [start_ms.(i) <= now_ms + ms];
    before that neither Cubic's nor the link's window is forced, so the
    flow starts from its initial window, and [cwnd_enforced.(i)]
    reports Cubic's window. [ms] (default {!interval_ms}, at most that)
    shortens the interval, for an episode whose length is not a whole
    number of intervals; the episode finishes once the clock reaches
    [duration_ms]. [observe i obs] (if given) receives agent flow [i]'s
    observation of the interval. Raises [Invalid_argument] on a
    finished episode, a wrong-length array, an out-of-range agent
    action or an [ms] outside [1, interval_ms]; every argument and
    action is checked before anything changes, so a raising step
    leaves the episode as it was. *)
