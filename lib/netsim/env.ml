type acks_handler =
  now_ms:int -> rtt_ms:int -> first_seq:int -> count:int -> delivered:int ->
  unit

type loss_handler = now_ms:int -> count:int -> unit
type handlers = { on_acks : acks_handler; on_loss : loss_handler }

type impairments = {
  random_loss : float;
  ack_jitter_ms : int;
  reorder_prob : float;
  reorder_ms : int;
  seed : int;
}

let no_impairments =
  {
    random_loss = 0.;
    ack_jitter_ms = 0;
    reorder_prob = 0.;
    reorder_ms = 0;
    seed = 0;
  }

type config = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  buffer_pkts : int;
  mtu_bytes : int;
  initial_cwnd : float;
  impairments : impairments;
}

let default_mtu = 1500

(* Link set-up, once per config: off the per-packet path. *)
let bdp_pkts ~mbps ~min_rtt_ms ~mtu_bytes =
  let pkts = mbps *. 125. *. float_of_int min_rtt_ms /. float_of_int mtu_bytes in
  Int.max 1 (int_of_float (Float.ceil pkts)) (* lint-ignore: float-c-call *)

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  capacity_pkts : float;
}
