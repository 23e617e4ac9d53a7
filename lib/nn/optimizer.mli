(** The Adam optimizer, as in the Orca/C3 training setup that TD3
    follows here.

    Operates on the [(value, gradient)] flat-array views exposed by
    {!Mlp.params}, so a single optimizer instance can drive any network. *)

type t

val adam : lr:float -> unit -> t
(** Adam with [beta1 = 0.9], [beta2 = 0.999] and [eps = 1e-8]. *)

val step : t -> (float array * float array) list -> unit
(** Apply one update using the current gradient values. The optimizer keeps
    per-parameter state keyed by position in the list, so the same
    parameter list (same order and shapes) must be passed on every call. *)

type snapshot = {
  step_count : int;
  moments : (int * float array * float array) list;
      (** [(slot index, first moment, second moment)], sorted by index.
          Arrays are deep copies — mutating them does not touch the live
          optimizer. *)
}

val snapshot : t -> snapshot
(** Capture the mutable update state (step counter and per-parameter
    moment vectors). The learning rate is not included: it comes from
    configuration, not training progress. *)

val restore : t -> snapshot -> unit
(** Overwrite [t]'s step counter and moments with a captured snapshot.
    Subsequent {!step} calls continue bit-for-bit as if the snapshot had
    never been interrupted. *)

val clip_gradients : norm:float -> (float array * float array) list -> unit
(** Global-norm gradient clipping applied in place. *)
