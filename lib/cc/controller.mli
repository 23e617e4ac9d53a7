(** Uniform congestion-controller interface.

    A controller reacts to ACK and loss feedback from the simulator,
    delivered in runs as {!Canopy_netsim.Env.handlers} describes, and
    exposes a congestion window. Concrete
    algorithms (Cubic, Vegas, BBR, Reno) provide [to_controller] wrappers
    producing this record; the Orca/Canopy agents compose with it by
    overriding the window the simulator actually uses. *)

type t = {
  name : string;
  on_acks : Canopy_netsim.Env.acks_handler;
  on_loss : Canopy_netsim.Env.loss_handler;
  cwnd : unit -> float;  (** current window suggestion, in packets *)
}

val handlers : t -> Canopy_netsim.Env.handlers
(** The controller's feedback callbacks, for registration with the
    simulator. *)
