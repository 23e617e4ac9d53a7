(* Fairness arena: competing flows on one bottleneck.

   A deployment concern adjacent to the paper's single-flow evaluation:
   does a controller share the link? This example pits controller pairs
   against each other on a shared 48 Mbps / 40 ms bottleneck and reports
   each flow's throughput plus Jain's fairness index, including a trained
   Canopy policy competing against TCP Cubic.

   Run with: dune exec examples/fairness_arena.exe *)

module MF = Canopy_netsim.Multiflow
module Controller = Canopy_cc.Controller

let duration_ms = 20_000

let arena name (mk_a : unit -> Controller.t) (mk_b : unit -> Controller.t) =
  let trace =
    Canopy_trace.Trace.constant ~name:"shared48" ~duration_ms ~mbps:48.
  in
  let mf =
    MF.create
      {
        MF.trace;
        min_rtt_ms = [| 40; 40 |];
        buffer_pkts = 320;
        mtu_bytes = 1500;
        initial_cwnd = 10.;
      }
  in
  let a = mk_a () and b = mk_b () in
  let handlers = [| Controller.handlers a; Controller.handlers b |] in
  for _ = 1 to duration_ms do
    MF.tick mf handlers;
    MF.set_cwnd mf ~flow:0 (a.Controller.cwnd ());
    MF.set_cwnd mf ~flow:1 (b.Controller.cwnd ())
  done;
  Format.printf "%-22s %-8s %6.1f Mbps  vs  %-8s %6.1f Mbps   jain=%.3f\n"
    name a.Controller.name
    (MF.throughput_mbps mf ~flow:0)
    b.Controller.name
    (MF.throughput_mbps mf ~flow:1)
    (MF.jain_index mf)

(* Adapt a trained (or here: untrained) Canopy policy into the controller
   interface: Cubic backbone + periodic Eq.-1 modulation, driven by the
   multi-flow clock. *)
let canopy_controller () =
  let rng = Canopy_util.Prng.create 99 in
  let history = 5 in
  let actor =
    Canopy_nn.Mlp.actor ~rng
      ~in_dim:(history * Canopy_orca.Observation.feature_count)
      ~hidden:32 ~out_dim:1
  in
  let cubic = Canopy_cc.Cubic.create () in
  let monitor = Canopy_orca.Monitor.create ~min_rtt_ms:40 () in
  let frames = Canopy_util.Ring.create ~capacity:history in
  for _ = 1 to history do
    Canopy_util.Ring.push frames Canopy_orca.Observation.zero_features
  done;
  let thr_scale = ref 0.1 in
  let last_decision = ref 0 in
  let cubic_handlers =
    Controller.handlers (Canopy_cc.Cubic.to_controller cubic)
  in
  let monitor_handlers = Canopy_orca.Monitor.handlers monitor in
  let decide now_ms =
    if now_ms - !last_decision >= 40 then begin
      last_decision := now_ms;
      let obs =
        Canopy_orca.Monitor.take monitor ~now_ms
          ~cwnd_pkts:(Canopy_cc.Cubic.cwnd cubic)
      in
      thr_scale := Float.max !thr_scale obs.Canopy_orca.Observation.thr_mbps;
      Canopy_util.Ring.push frames
        (Canopy_orca.Observation.to_features ~thr_scale_mbps:!thr_scale obs);
      let state =
        Canopy_util.Ring.to_array frames |> Array.to_list |> Array.concat
      in
      let a =
        Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.
          (Canopy_nn.Mlp.forward actor state).(0)
      in
      let enforced =
        Canopy_orca.Fleet_env.cwnd_of_action ~action:a
          ~cwnd_tcp:(Canopy_cc.Cubic.cwnd cubic)
      in
      Canopy_cc.Cubic.force_cwnd cubic enforced
    end
  in
  {
    Controller.name = "canopy";
    (* A decision may force Cubic's window between two ACKs of a run, so
       the run is replayed ACK by ACK. *)
    on_acks =
      (fun ~now_ms ~rtt_ms ~first_seq ~count ~delivered ->
        for k = 0 to count - 1 do
          let first_seq = first_seq + k
          and delivered = delivered - count + 1 + k in
          cubic_handlers.Canopy_netsim.Env.on_acks ~now_ms ~rtt_ms ~first_seq
            ~count:1 ~delivered;
          monitor_handlers.Canopy_netsim.Env.on_acks ~now_ms ~rtt_ms
            ~first_seq ~count:1 ~delivered;
          decide now_ms
        done);
    on_loss =
      (fun ~now_ms ~count ->
        for _ = 1 to count do
          cubic_handlers.Canopy_netsim.Env.on_loss ~now_ms ~count:1;
          monitor_handlers.Canopy_netsim.Env.on_loss ~now_ms ~count:1;
          decide now_ms
        done);
    cwnd = (fun () -> Canopy_cc.Cubic.cwnd cubic);
  }

let cubic () = Canopy_cc.Cubic.to_controller (Canopy_cc.Cubic.create ())
let reno () = Canopy_cc.Reno.to_controller (Canopy_cc.Reno.create ())
let vegas () = Canopy_cc.Vegas.to_controller (Canopy_cc.Vegas.create ())
let bbr () = Canopy_cc.Bbr.to_controller (Canopy_cc.Bbr.create ())
let vivace () = Canopy_cc.Vivace.to_controller (Canopy_cc.Vivace.create ())

let () =
  Format.printf "flows sharing a 48 Mbps / 40 ms bottleneck (2 BDP buffer):@.@.";
  arena "intra-protocol" cubic cubic;
  arena "intra-protocol" reno reno;
  arena "loss vs delay" cubic vegas;
  arena "loss vs model" cubic bbr;
  arena "loss vs learned" cubic vivace;
  arena "learned modulation" canopy_controller cubic;
  Format.printf
    "@.Jain index 1.0 = perfectly fair; the Cubic-vs-Vegas row shows the@.";
  Format.printf
    "classic starvation of delay-based control by loss-based control.@."
