(* Fairness arena: competing flows on one bottleneck.

   A deployment concern adjacent to the paper's single-flow evaluation:
   does a controller share the link? This example pits controller pairs
   against each other on a shared 48 Mbps / 40 ms bottleneck and reports
   each flow's throughput plus Jain's fairness index, including a Canopy
   policy (here an untrained actor) competing against TCP Cubic. Every
   arena is one [Eval.eval_coexist] run: both flows share one link of
   the fleet simulator.

   Run with: dune exec examples/fairness_arena.exe *)

module Eval = Canopy.Eval

let duration_ms = 20_000

let link =
  Eval.link ~min_rtt_ms:40 ~bdp:2. ~duration_ms
    (Canopy_trace.Trace.constant ~name:"shared48" ~duration_ms ~mbps:48.)

let arena name a b =
  let r = Eval.eval_coexist ~flows:[ a; b ] link in
  let f0 = r.Eval.flows.(0) and f1 = r.Eval.flows.(1) in
  Format.printf "%-22s %-8s %6.1f Mbps  vs  %-8s %6.1f Mbps   jain=%.3f\n"
    name f0.Eval.scheme f0.throughput_mbps f1.Eval.scheme f1.throughput_mbps
    r.Eval.jain

let tcp name make = Eval.Coexist_tcp (name, make)
let cubic = tcp "cubic" Eval.cubic_scheme
let reno = tcp "reno" (fun () -> Canopy_cc.Reno.to_controller (Canopy_cc.Reno.create ()))
let vegas = tcp "vegas" Eval.vegas_scheme
let bbr = tcp "bbr" Eval.bbr_scheme
let vivace = tcp "vivace" Eval.vivace_scheme

(* A Canopy flow: Cubic backbone with the actor's Eq. 1 modulation at
   every decision tick (40 ms, the Orca cadence at this minRTT). *)
let canopy =
  let history = 5 in
  let actor =
    Canopy_nn.Mlp.actor
      ~rng:(Canopy_util.Prng.create 99)
      ~in_dim:(history * Canopy_orca.Observation.feature_count)
      ~hidden:32 ~out_dim:1
  in
  Eval.Coexist_canopy (`Mlp actor)

let () =
  Format.printf "flows sharing a 48 Mbps / 40 ms bottleneck (2 BDP buffer):@.@.";
  arena "intra-protocol" cubic cubic;
  arena "intra-protocol" reno reno;
  arena "loss vs delay" cubic vegas;
  arena "loss vs model" cubic bbr;
  arena "loss vs learned" cubic vivace;
  arena "learned modulation" canopy cubic;
  Format.printf
    "@.Jain index 1.0 = perfectly fair; the Cubic-vs-Vegas row shows the@.";
  Format.printf
    "classic starvation of delay-based control by loss-based control.@."
