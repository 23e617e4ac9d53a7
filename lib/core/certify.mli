(** Certificate construction via abstract interpretation (Section 4.3)
    and the quantitative certificate functions of Section 4.4.

    For a property case, the current concrete agent state is lifted to an
    abstract box in which only the normalized-delay dimensions (one per
    history frame) are symbolic: they carry the case's precondition
    interval, subdivided into [n_components] slices to curb
    over-approximation (Section 5). Each slice is propagated through the
    actor with IBP and through the CWND map of Eq. 1, yielding an output
    interval that is compared against the postcondition with the interval
    distance D of Eq. 7.

    A certificate describes its component boxes once, in factored form
    ({!Canopy_absint.Box.set}: the state, the delay columns and a
    [K × history] block of centers and radii); every engine, and the
    tree certifier, reads that set (DESIGN.md §8). *)

open Canopy_nn
open Canopy_absint

type domain =
  | Box_domain  (** hyper-intervals (Section 3.2) — the paper's choice *)
  | Zonotope_domain
      (** affine forms (the Section-8 "more complex domains" extension):
          tighter on affine chains, costlier per pass *)

type engine =
  | Batched
      (** the verifier-IR engine: the actor is normalized once per
          parameter generation to fused affine stages
          ({!Canopy_absint.Anet}) and a whole workload of boxes is pushed
          through each stage as two GEMMs in center–radius form *)
  | Per_slice
      (** the pre-IR reference: one layer-by-layer propagation per box;
          kept for equivalence tests and benchmarks *)

type component = {
  case : Property.case;
  index : int;  (** slice number within the case, 0-based *)
  slice : Interval.t;
      (** the precondition sub-interval this component covers: a
          normalized-delay range (performance) or a noise-factor range
          (robustness) *)
  action : Interval.t;  (** abstract action a♯ *)
  output : Interval.t;  (** ΔCWND♯ (performance) or CWNDCHANGE♯ (robustness) *)
  target : Interval.t;  (** postcondition Y *)
  distance : float;  (** D(Y, output♯) ∈ [0,1] *)
  certified : bool;  (** distance = 1, i.e. γ(output♯) ⊆ Y *)
}

type t = {
  property : Property.t;
  components : component array;
  per_case_distance : (Property.case * float) list;
      (** mean component distance per case *)
  r_verifier : float;  (** Eq. 8: per-case distances averaged *)
  fcc : float;  (** fraction of certified components (Section 6.1) *)
  fcs : bool;  (** all components certified at this step *)
}

val certify :
  ?engine:engine ->
  ?domain:domain ->
  actor:Mlp.t ->
  property:Property.t ->
  n_components:int ->
  history:int ->
  state:float array ->
  cwnd_tcp:float ->
  prev_cwnd:float ->
  unit ->
  t
(** [certify] builds the step certificate for the given policy and
    context. [state] is the concrete [history × feature_count] agent
    state; [cwnd_tcp] the backbone's current suggestion (CWND_TCP of
    Eq. 1); [prev_cwnd] the window enforced at the previous step
    (CWND_{i−1} of the performance property; ignored for robustness).
    [domain] defaults to the paper's box domain; [engine] to the batched
    verifier-IR engine, which evaluates every slice of every case in a
    single pass and agrees with [~engine:Per_slice] to reassociation
    rounding (≤1e-9 relative — see DESIGN.md §8). Raises
    [Invalid_argument] on dimension mismatches, [n_components <= 0], or
    a NaN or infinite entry of [state], [cwnd_tcp] or [prev_cwnd]
    (["Certify.certify: non-finite state"]). *)

val certify_tree :
  ?conservative:bool ->
  tree:Canopy_distill.Tree.t ->
  property:Property.t ->
  n_components:int ->
  history:int ->
  state:float array ->
  cwnd_tcp:float ->
  prev_cwnd:float ->
  unit ->
  t
(** {!certify} for the distilled piecewise-affine tree policy
    ({!Canopy_distill.Tree}).  No abstract engine runs: each component's
    input box is intersected with every leaf's split polytope (an
    axis-aligned cell) and the leaf's single affine stage is bounded
    term-by-term — tight, so the abstract action interval is the {e exact}
    hull of the tree's reachable outputs over the box (up to the closed
    cell boundaries) and the reported distances carry no abstraction
    slack.  The action interval is clamped to [\[-1, 1\]] exactly as
    serving clamps the concrete prediction.  With [~conservative:true]
    the leaf-cell intersection is skipped (every leaf bounded over the
    whole box), reproducing what a structure-blind interval engine would
    report; the exact reading always certifies at least as much.
    Raises [Invalid_argument] as {!certify}, with
    ["Certify.certify_tree"] in the message. *)

val certify_adaptive :
  ?engine:engine ->
  ?domain:domain ->
  ?initial_components:int ->
  actor:Mlp.t ->
  property:Property.t ->
  max_components:int ->
  history:int ->
  state:float array ->
  cwnd_tcp:float ->
  prev_cwnd:float ->
  unit ->
  t
(** Adaptive domain subdivision (the Section-8 future-work direction):
    start from [initial_components] (default 2) equal slices and bisect
    only the {e undecided} components — distance strictly in (0,1) —
    spending at most [max_components] additional splits per case. Decided
    components (fully certified, or fully refuted) are never refined, so
    the effort concentrates where over-approximation may be hiding a
    proof. Refinement runs in rounds; with the batched engine each
    round's open slices across all cases are evaluated in one pass.
    Raises [Invalid_argument] as {!certify}, with
    ["Certify.certify_adaptive"] in the message. *)

val delay_indices : history:int -> int list
(** Indices of the normalized-delay dimensions inside the flat state. *)

val pp : Format.formatter -> t -> unit

(** {2 Counterexample search}

    Certificates are sound but incomplete (Section 8): an uncertified
    component may be a real violation or an artifact of
    over-approximation. {!refute} searches the component's slice for a
    concrete witness state whose action provably violates the
    postcondition, separating the two. *)

type refutation =
  | Violation of { state : float array; output : float }
      (** concrete witness: the state (with the delay dimensions set
          inside the component's slice) whose ΔCWND / CWNDCHANGE lies
          outside the target *)
  | Unknown
      (** no witness found within the sampling budget — the component may
          be certified-able with a more precise domain *)

val refute :
  rng:Canopy_util.Prng.t ->
  actor:Mlp.t ->
  history:int ->
  state:float array ->
  cwnd_tcp:float ->
  prev_cwnd:float ->
  component ->
  refutation
(** [refute ... component] samples 64 delay values inside the
    component's slice (its endpoints and midpoint first), evaluates the
    concrete policy, and returns the worst concrete witness if any
    violates the postcondition (the component's [target]). A returned
    [Violation] is a genuine property violation (no abstraction
    involved); [Unknown] leaves the component's status open. Certified
    components always return [Unknown].

    The sample sequence is derived from one draw on [rng] (advancing the
    caller's stream) mixed with the component's case and index, so
    repeated refutations across steps and across components explore
    fresh points instead of replaying one fixed sequence, while a caller
    that reseeds its PRNG reproduces the run exactly. *)
