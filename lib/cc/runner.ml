module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet

type metrics = {
  scheme : string;
  trace : string;
  utilization : float;
  avg_throughput_mbps : float;
  avg_qdelay_ms : float;
  p95_qdelay_ms : float;
  avg_rtt_ms : float;
  loss_rate : float;
  delivered_pkts : int;
  dropped_pkts : int;
}

let buffer_of_bdp ~bdp_multiplier ~trace ~min_rtt_ms =
  let bdp =
    Env.bdp_pkts
      ~mbps:(Canopy_trace.Trace.avg_mbps trace)
      ~min_rtt_ms ~mtu_bytes:Env.default_mtu
  in
  Int.max 1 (int_of_float (Float.round (bdp_multiplier *. float_of_int bdp)))

let run ~trace ~min_rtt_ms ~buffer_pkts ~duration_ms make_controller =
  if duration_ms <= 0 then invalid_arg "Runner.run: duration";
  let controller = make_controller () in
  let cfg =
    {
      Env.trace;
      min_rtt_ms;
      buffer_pkts;
      mtu_bytes = Env.default_mtu;
      initial_cwnd = controller.Controller.cwnd ();
      impairments = Env.no_impairments;
    }
  in
  let fleet = Fleet.create [| cfg |] in
  let after_tick _ =
    Fleet.set_cwnd fleet ~flow:0 (controller.Controller.cwnd ())
  in
  Fleet.run ~after_tick fleet [| Controller.handlers controller |]
    ~ms:duration_ms;
  let st = Fleet.stats fleet ~flow:0 in
  (* Delays and RTTs are whole milliseconds, so the means are exact
     integer sums divided once, and the p95 reads its two order statistics
     off the histogram: the bits of [Stats.mean] and [Stats.percentile]
     over the per-ack samples, with no per-packet array (DESIGN §12). *)
  {
    scheme = controller.Controller.name;
    trace = Canopy_trace.Trace.name trace;
    utilization = Fleet.utilization fleet ~flow:0;
    avg_throughput_mbps =
      float_of_int st.delivered
      *. float_of_int Env.default_mtu *. 8. /. 1e6
      /. (float_of_int duration_ms /. 1000.);
    avg_qdelay_ms = Fleet.avg_qdelay_ms fleet ~flow:0;
    p95_qdelay_ms =
      (if st.delivered = 0 then 0.
       else Fleet.qdelay_percentile_ms fleet ~flow:0 95.);
    avg_rtt_ms = Fleet.avg_rtt_ms fleet ~flow:0;
    loss_rate = Fleet.loss_rate fleet ~flow:0;
    delivered_pkts = st.delivered;
    dropped_pkts = st.dropped;
  }
