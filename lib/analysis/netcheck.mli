(** Static shape and finiteness validation for network stacks.

    Run before training and evaluation: a dimension-mismatched stack, a
    NaN weight or an uninitialized batch-norm statistic invalidates both
    the forward pass and every certificate computed over it. Rules:

    - [net-dim-mismatch]: layer input dimensions do not chain;
    - [net-nonfinite-param]: NaN/infinite weights, biases or statistics;
    - [net-bn-uninitialized]: negative or identically-zero running
      variance;
    - [net-bad-hyper]: eps, momentum or activation slope outside their
      valid ranges (the abstract transformers require slope ∈ [0,1]). *)

val check_layers :
  name:string -> in_dim:int -> Canopy_nn.Layer.t list -> Diagnostic.t list
(** Validate a raw layer stack against an input dimension. Unlike
    [Mlp.create] this never raises — it reports every problem found.
    [name] labels the diagnostics. *)

val check_mlp : ?name:string -> Canopy_nn.Mlp.t -> Diagnostic.t list

val check_checkpoint : string -> (Diagnostic.t list, string) result
(** Load a checkpoint and validate it. [Error] covers unreadable or
    malformed files; [Ok diags] carries the validation findings. *)

val assert_valid : ?what:string -> Canopy_nn.Mlp.t -> unit
(** Raise [Invalid_argument] listing every finding if the network fails
    validation. Used as the pre-flight gate by the trainer. *)
