type t = {
  name : string;
  on_acks : Canopy_netsim.Env.acks_handler;
  on_loss : Canopy_netsim.Env.loss_handler;
  cwnd : unit -> float;
}

let handlers t =
  { Canopy_netsim.Env.on_acks = t.on_acks; on_loss = t.on_loss }
