type ack = { now_ms : int; seq : int; rtt_ms : int; delivered : int }
type handlers = { on_ack : ack -> unit; on_loss : now_ms:int -> unit }

let null_handlers = { on_ack = (fun _ -> ()); on_loss = (fun ~now_ms:_ -> ()) }

let chain a b =
  {
    on_ack =
      (fun ack ->
        a.on_ack ack;
        b.on_ack ack);
    on_loss =
      (fun ~now_ms ->
        a.on_loss ~now_ms;
        b.on_loss ~now_ms);
  }

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

let bdp_pkts ~mbps ~min_rtt_ms ~mtu_bytes =
  let pkts = mbps *. 125. *. float_of_int min_rtt_ms /. float_of_int mtu_bytes in
  Int.max 1 (int_of_float (Float.ceil pkts))

type stats = {
  sent : int;
  delivered : int;
  dropped : int;
  capacity_pkts : float;
}
