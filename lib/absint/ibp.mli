(** Interval Bound Propagation through a neural controller (Section 5).

    Propagates a {!Box.t} through every layer of an {!Canopy_nn.Mlp.t}
    using the inference-mode semantics — batch normalization is the affine
    map induced by its running statistics, exactly the function the
    deployed controller computes — and returns a sound over-approximation
    of the reachable outputs. *)

open Canopy_nn

val propagate : Mlp.t -> Box.t -> Box.t
(** Sound abstract image of the input box under the network. Raises
    [Invalid_argument] when the box dimension differs from the network's
    input dimension. *)

val output_interval : Mlp.t -> Box.t -> Interval.t
(** {!propagate} specialized to scalar-output networks (the CWND-scaling
    action head). Raises [Invalid_argument] for networks with more than
    one output. *)
