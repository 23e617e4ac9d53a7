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

type series = {
  bin_ms : int;
  throughput_mbps : float array;
  capacity_mbps : float array;
  cwnd : float array;
  avg_qdelay_ms_bins : float array;
}

let buffer_of_bdp ~bdp_multiplier ~trace ~min_rtt_ms =
  let bdp =
    Env.bdp_pkts
      ~mbps:(Canopy_trace.Trace.avg_mbps trace)
      ~min_rtt_ms ~mtu_bytes:Env.default_mtu
  in
  Int.max 1 (int_of_float (Float.round (bdp_multiplier *. float_of_int bdp)))

let run ?series_bin_ms ?(impairments = Env.no_impairments) ~trace ~min_rtt_ms
    ~buffer_pkts ~duration_ms make_controller =
  if duration_ms <= 0 then invalid_arg "Runner.run: duration";
  let controller = make_controller () in
  let cfg =
    {
      Env.trace;
      min_rtt_ms;
      buffer_pkts;
      mtu_bytes = Env.default_mtu;
      initial_cwnd = controller.Controller.cwnd ();
      impairments;
    }
  in
  let fleet = Fleet.create [| cfg |] in
  (* Per-bin series accumulators. *)
  let bin_ms = Option.value ~default:0 series_bin_ms in
  let nbins = if bin_ms > 0 then (duration_ms + bin_ms - 1) / bin_ms else 0 in
  let thr_bins = Array.make (Int.max 1 nbins) 0. in
  let cap_bins = Array.make (Int.max 1 nbins) 0. in
  let cwnd_bins = Array.make (Int.max 1 nbins) 0. in
  let qd_sum = Array.make (Int.max 1 nbins) 0. in
  let qd_cnt = Array.make (Int.max 1 nbins) 0 in
  let bin_of ms = Int.min (Int.max 0 ((ms - 1) / bin_ms)) (nbins - 1) in
  let series_handlers =
    if bin_ms = 0 then Env.null_handlers
    else
      {
        Env.on_acks =
          (fun ~now_ms ~rtt_ms ~first_seq:_ ~count ~delivered:_ ->
            let b = bin_of now_ms in
            let q = float_of_int (Int.max 0 (rtt_ms - min_rtt_ms)) in
            for _ = 1 to count do
              thr_bins.(b) <- thr_bins.(b) +. 1.;
              qd_sum.(b) <- qd_sum.(b) +. q
            done;
            qd_cnt.(b) <- qd_cnt.(b) + count);
        on_loss = (fun ~now_ms:_ ~count:_ -> ());
      }
  in
  let handlers = Env.chain (Controller.handlers controller) series_handlers in
  (* After every millisecond: apply the controller's window, then sample
     the series. *)
  let ms = ref 0 in
  let after_tick _ =
    incr ms;
    Fleet.set_cwnd fleet ~flow:0 (controller.Controller.cwnd ());
    if bin_ms > 0 then begin
      let b = bin_of !ms in
      cwnd_bins.(b) <- Fleet.cwnd fleet ~flow:0;
      cap_bins.(b) <-
        cap_bins.(b) +. Canopy_trace.Trace.mbps_at trace (!ms - 1)
    end
  in
  Fleet.run ~after_tick fleet [| handlers |] ~ms:duration_ms;
  let st = Fleet.stats fleet ~flow:0 in
  (* Delays and RTTs are whole milliseconds, so the means are exact
     integer sums divided once, and the p95 reads its two order statistics
     off the histogram: the bits of [Stats.mean] and [Stats.percentile]
     over the per-ack samples, with no per-packet array (DESIGN §12). *)
  let metrics =
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
  in
  let series =
    if bin_ms = 0 then None
    else begin
      let pkts_to_mbps pkts =
        pkts *. float_of_int Env.default_mtu *. 8. /. 1e6
        /. (float_of_int bin_ms /. 1000.)
      in
      Some
        {
          bin_ms;
          throughput_mbps = Array.map pkts_to_mbps thr_bins;
          capacity_mbps =
            Array.map (fun sum -> sum /. float_of_int bin_ms) cap_bins;
          cwnd = cwnd_bins;
          avg_qdelay_ms_bins =
            Array.init nbins (fun b ->
                if qd_cnt.(b) = 0 then 0.
                else qd_sum.(b) /. float_of_int qd_cnt.(b));
        }
    end
  in
  (metrics, series)
