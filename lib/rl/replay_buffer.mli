(** Uniform-sampling experience replay for off-policy RL. *)

type transition = {
  state : float array;
  action : float array;
  reward : float;
  next_state : float array;
  terminal : bool;
      (** the environment reached a true absorbing state: the return after
          this transition is exactly [reward], so TD targets must not
          bootstrap past it *)
  truncated : bool;
      (** the episode was cut off by an artificial horizon (e.g. the
          trace's [duration_ms] time limit) while the MDP itself would
          have continued; TD targets should still bootstrap from
          [next_state]. Distinguishing this from [terminal] avoids the
          classic time-limit bias (treating every episode end as
          absorbing zeroes the bootstrap and skews value estimates). *)
}

type t

val create : capacity:int -> t
(** Requires [capacity > 0]. Once full, new transitions overwrite the
    oldest ones. *)

val capacity : t -> int
val length : t -> int
val add : t -> transition -> unit

val sample : t -> Canopy_util.Prng.t -> batch_size:int -> transition array
(** Uniform sample with replacement. Raises [Invalid_argument] when the
    buffer is empty. *)

val cursor : t -> int
(** Index of the slot the next {!add} will overwrite. Together with
    {!iter}'s storage order this pins down the full internal layout, which
    checkpoints must preserve: {!sample} draws by raw slot index, so two
    buffers with the same contents but rotated layouts replay different
    batches. *)

val iter : (transition -> unit) -> t -> unit
(** Iterate in storage order (slot [0] to [length t - 1]), not insertion
    order. *)

val of_seq : capacity:int -> ?cursor:int -> transition Seq.t -> t
(** Rebuild a buffer whose storage slots [0..n-1] hold the sequence's
    elements in order, with the write cursor at [cursor] (default: [n mod
    capacity]). [of_seq ~capacity ~cursor:(cursor t) (List.to_seq (collected
    iter t))] is an exact clone. Raises [Invalid_argument] if the sequence
    exceeds [capacity] or the cursor is inconsistent (it must equal the
    length while the buffer is filling, and lie in [\[0, capacity)] once
    full). *)
