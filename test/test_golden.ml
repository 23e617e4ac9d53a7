(* Golden trajectory digests of the link simulator and the Orca episode.

   Each digest is a CRC-32 over the Int64 bits of every number a run
   produces, in order (integers go through [float_of_int], which is exact
   at these magnitudes). Any change to the simulator's arithmetic, event
   order or PRNG use moves a digest. The expected values live in
   [fixtures/golden_sim.txt], one [key crc] pair per line; on a mismatch
   the failure lists every differing key, and the lines to paste into
   the fixture are printed on stdout.

   Six families are pinned:
   - [agent/...]: Orca episodes on the 22 suite traces (1 s, 2 BDP,
     minRTT 30-50 ms), clean and impaired, driven by the committed
     [actor_h8.ckpt]; per step the state, the action and the reward,
     then the episode's link metrics; plus the first impaired episode
     with the action unshifted (a drop storm under jitter);
   - [runner/...]: [Runner.run] metrics and time series for five TCP
     baselines on the same links;
   - [fleet/...]: the ack and loss event streams and final counters of a
     5-flow fleet under a fixed window schedule, one flow impaired, and
     of three links with one impairment each (random loss, ACK jitter,
     reordering) whose windows overflow the buffer;
   - [cert/...]: step certificates along the clean [agent/...] episodes,
     per engine, model and property: every component's action interval,
     output interval, distance and certified flag, then the certificate's
     [r_verifier]; and the witnesses [Certify.refute] finds;
   - [multiflow/...]: shared-bottleneck runs through
     [Eval.eval_coexist] (Canopy against Cubic and BBR, Cubic against
     Cubic) on suite traces, one shallow-buffer case with a late
     arrival, Cubic against Cubic under each single impairment, and the
     event streams of three Cubic flows with different minRTTs on one
     shared [Fleet] link;
   - [td3/...]: the six networks of a TD3 agent after a dozen
     [Td3.update]s from a seeded replay, at batch sizes that cut into
     one, three and four critic shards, with greedy actions and Q-values
     read back; and one short [Trainer.train] run's actor checkpoint and
     epoch curve. *)

module Env = Canopy_netsim.Env
module Fleet = Canopy_netsim.Fleet
module Eval = Canopy.Eval
module Trace = Canopy_trace.Trace
module Suite = Canopy_trace.Suite
module Agent_env = Canopy_orca.Agent_env
module Runner = Canopy_cc.Runner
module Mlp = Canopy_nn.Mlp
module Crc32 = Canopy_util.Crc32
module Stats = Canopy_util.Stats
module Prng = Canopy_util.Prng
module Interval = Canopy_absint.Interval
module Certify = Canopy.Certify
module Property = Canopy.Property

let fixture name =
  let local = Filename.concat "fixtures" name in
  if Sys.file_exists local then local
  else Filename.concat (Filename.concat "test" "fixtures") name

let golden =
  lazy
    (let ic = open_in (fixture "golden_sim.txt") in
     let tbl = Hashtbl.create 256 in
     Fun.protect
       ~finally:(fun () -> close_in ic)
       (fun () ->
         try
           while true do
             match String.split_on_char ' ' (String.trim (input_line ic)) with
             | [ key; crc ] -> Hashtbl.replace tbl key crc
             | _ -> ()
           done
         with End_of_file -> ());
     tbl)

(* Digest accumulator: the bits of each number, little-endian. *)
let digest () = Buffer.create 4096
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_floats b xs = Array.iter (add_float b) xs
let add_int b n = add_float b (float_of_int n)
let crc b = Crc32.to_hex (Crc32.string (Buffer.contents b))

(* Handlers that digest every event as a per-packet simulator reported
   it: a run of ACKs expands into one record per ACK (its time, seq, RTT
   and delivered count), a run of losses into one record per loss. The
   streams pinned before feedback came in runs therefore still match. *)
let digest_events b =
  {
    Env.on_acks =
      (fun ~now_ms ~rtt_ms ~first_seq ~count ~delivered ->
        for k = 0 to count - 1 do
          add_float b 0.;
          add_int b now_ms;
          add_int b (first_seq + k);
          add_int b rtt_ms;
          add_int b (delivered - count + 1 + k)
        done);
    on_loss =
      (fun ~now_ms ~count ->
        for _ = 1 to count do
          add_float b 1.;
          add_int b now_ms
        done);
  }

(* Compare every computed (key, crc) pair of one family with the
   fixture, and require the fixture to hold no other key of the family. *)
let check_family ~prefix computed =
  let tbl = Lazy.force golden in
  let bad =
    List.filter_map
      (fun (key, got) ->
        match Hashtbl.find_opt tbl key with
        | Some want when String.equal want got -> None
        | Some want -> Some (Printf.sprintf "%s: want %s, got %s" key want got)
        | None -> Some (Printf.sprintf "%s: missing from fixture (got %s)" key got))
      computed
  in
  let stale =
    Hashtbl.fold
      (fun key _ acc ->
        if String.starts_with ~prefix key
           && not (List.mem_assoc key computed)
        then Printf.sprintf "%s: in fixture, not computed" key :: acc
        else acc)
      tbl []
  in
  match bad @ List.sort String.compare stale with
  | [] -> ()
  | errs ->
      List.iter (fun (key, got) -> Printf.printf "%s %s\n" key got) computed;
      Alcotest.failf "%d golden digest(s) differ:\n%s" (List.length errs)
        (String.concat "\n" errs)

(* The evaluate workload's links: the 22 suite traces at 1 s, 2 BDP,
   minRTT spread over 30-50 ms. *)
let suite_links () =
  List.mapi
    (fun i trace ->
      let min_rtt_ms = 30 + (i mod 21) in
      let buffer_pkts =
        Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace ~min_rtt_ms
      in
      (Printf.sprintf "%02d-%s" i (Trace.name trace), trace, min_rtt_ms, buffer_pkts))
    (Suite.all ~duration_ms:1_000 ())

(* Random loss, ACK jitter and reordering all on. *)
let impaired i =
  {
    Env.random_loss = 0.01;
    ack_jitter_ms = 3;
    reorder_prob = 0.05;
    reorder_ms = 6;
    seed = 7 + i;
  }

let variants = [ ("clean", fun _ -> Env.no_impairments); ("impaired", impaired) ]

(* ------------------------------------------------------------------ *)
(* (a) Orca episodes *)

let clamp = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

(* One episode's digest, and the certificate inputs of each of its steps:
   the state, CWND_TCP and the previous enforced window. *)
let agent_run ~policy (cfg : Agent_env.config) =
  let b = digest () in
  let env = Agent_env.create cfg in
  let contexts = ref [] in
  let finished = ref false in
  while not !finished do
    let s = Agent_env.state env in
    contexts :=
      (s, Agent_env.cwnd_tcp env, Agent_env.prev_cwnd_enforced env)
      :: !contexts;
    let action = policy s in
    let res = Agent_env.step env ~action in
    add_floats b s;
    add_float b action;
    add_float b res.raw_reward;
    finished := res.finished
  done;
  let qd = Agent_env.qdelay_array_ms env in
  add_float b (Agent_env.utilization env);
  add_float b (Stats.mean qd);
  add_float b (if Array.length qd = 0 then 0. else Stats.percentile qd 95.);
  add_float b (Agent_env.loss_rate env);
  add_int b (Agent_env.env_stats env).Env.delivered;
  (crc b, List.rev !contexts)

let fixture_actor = lazy (Canopy.Trainer.load_actor (fixture "actor_h8.ckpt"))

(* Clean episodes serve the actor as deployed. The fixture actor
   saturates near a = 1 and drives the window to the 50 000-packet
   clamp, where thousands of packets a millisecond are tail-dropped.
   With ACK jitter or reordering their loss events arrive before the
   latest ACK scheduled. When each drop was its own event, each one was
   inserted ahead of the same millisecond's earlier drops, so every
   millisecond cost time quadratic in its drops: unshifted, the first
   impaired episode took about 4 minutes on a 2-vCPU Xeon VM. One
   millisecond's drops are now one loss run, inserted once, and that
   episode takes about a millisecond; it is pinned as
   [agent/impaired-unshifted/...] below. The impaired suite episodes
   keep their action shift, which holds the window at or below Cubic's
   suggestion while the actor still sets it, because their digests are
   frozen with it. *)
let agent_runs variant =
  let actor = Lazy.force fixture_actor in
  let policy =
    if String.equal variant "clean" then fun s ->
      clamp (Mlp.forward actor s).(0)
    else fun s -> clamp ((Mlp.forward actor s).(0) -. 1.)
  in
  let impair = List.assoc variant variants in
  List.mapi
    (fun i (name, trace, min_rtt_ms, buffer_pkts) ->
      let cfg =
        {
          (Agent_env.default_config ~trace ~min_rtt_ms ~buffer_pkts
             ~duration_ms:1_000)
          with
          impairments = impair i;
        }
      in
      (Printf.sprintf "agent/%s/%s" variant name, agent_run ~policy cfg))
    (suite_links ())

(* The clean runs are shared with the certificate family below. *)
let clean_runs = lazy (agent_runs "clean")

(* The first impaired episode without the action shift: the drop storm
   the shifted episodes avoid, frozen on the per-packet simulator. *)
let unshifted_impaired_run () =
  let actor = Lazy.force fixture_actor in
  let name, trace, min_rtt_ms, buffer_pkts = List.hd (suite_links ()) in
  let cfg =
    {
      (Agent_env.default_config ~trace ~min_rtt_ms ~buffer_pkts
         ~duration_ms:1_000)
      with
      impairments = impaired 0;
    }
  in
  ( Printf.sprintf "agent/impaired-unshifted/%s" name,
    agent_run ~policy:(fun s -> clamp (Mlp.forward actor s).(0)) cfg )

let test_agent_episodes () =
  check_family ~prefix:"agent/"
    (List.map
       (fun (key, (crc, _)) -> (key, crc))
       (Lazy.force clean_runs @ agent_runs "impaired"
       @ [ unshifted_impaired_run () ]))

(* ------------------------------------------------------------------ *)
(* (b) TCP baselines through Runner *)

let schemes =
  [
    ("cubic", Canopy.Eval.cubic_scheme);
    ("reno", fun () -> Canopy_cc.Reno.to_controller (Canopy_cc.Reno.create ()));
    ("vegas", Canopy.Eval.vegas_scheme);
    ("bbr", Canopy.Eval.bbr_scheme);
    ("vivace", Canopy.Eval.vivace_scheme);
  ]

let runner_digest ~impairments ~trace ~min_rtt_ms ~buffer_pkts make =
  let b = digest () in
  let (m : Runner.metrics), series =
    Runner.run ~series_bin_ms:100 ~impairments ~trace ~min_rtt_ms ~buffer_pkts
      ~duration_ms:1_000 make
  in
  add_floats b
    [|
      m.utilization;
      m.avg_throughput_mbps;
      m.avg_qdelay_ms;
      m.p95_qdelay_ms;
      m.avg_rtt_ms;
      m.loss_rate;
    |];
  add_int b m.delivered_pkts;
  add_int b m.dropped_pkts;
  Option.iter
    (fun (s : Runner.series) ->
      add_floats b s.throughput_mbps;
      add_floats b s.capacity_mbps;
      add_floats b s.cwnd;
      add_floats b s.avg_qdelay_ms_bins)
    series;
  crc b

let test_runner_metrics () =
  let links = suite_links () in
  check_family ~prefix:"runner/"
    (List.concat_map
       (fun (variant, impair) ->
         List.concat_map
           (fun (scheme, make) ->
             List.mapi
               (fun i (name, trace, min_rtt_ms, buffer_pkts) ->
                 ( Printf.sprintf "runner/%s/%s/%s" variant scheme name,
                   runner_digest ~impairments:(impair i) ~trace ~min_rtt_ms
                     ~buffer_pkts make ))
               links)
           schemes)
       variants)

(* ------------------------------------------------------------------ *)
(* (c) Fleet event streams *)

(* Drive [cfgs] through eight 50 ms segments, flow [i] at window
   [window i seg] in segment [seg]; per flow, digest every ack and loss
   event, then the flow's counters and metrics. *)
let fleet_stream_digests cfgs ~window =
  let n = Array.length cfgs in
  let bufs = Array.init n (fun _ -> digest ()) in
  let handlers = Array.map digest_events bufs in
  let fleet = Fleet.create cfgs in
  for seg = 0 to 7 do
    for i = 0 to n - 1 do
      Fleet.set_cwnd fleet ~flow:i (window i seg)
    done;
    Fleet.run fleet handlers ~ms:50
  done;
  Array.to_list
    (Array.mapi
       (fun flow b ->
         add_int b (Fleet.now_ms fleet);
         add_int b (Fleet.sent fleet ~flow);
         add_int b (Fleet.delivered fleet ~flow);
         add_int b (Fleet.dropped fleet ~flow);
         add_int b (Fleet.inflight fleet ~flow);
         add_int b (Fleet.queue_len fleet ~flow);
         add_floats b
           [|
             Fleet.capacity_pkts fleet ~flow;
             Fleet.cwnd fleet ~flow;
             Fleet.utilization fleet ~flow;
             Fleet.loss_rate fleet ~flow;
             Fleet.avg_qdelay_ms fleet ~flow;
           |];
         crc b)
       bufs)

(* Five constant-rate links, flow 1 at a shorter minRTT and flow 3
   impaired. *)
let mixed_fleet_digests () =
  let n = 5 in
  let cfgs =
    Array.init n (fun i ->
        {
          Env.trace =
            Trace.constant
              ~name:(Printf.sprintf "t%d" i)
              ~duration_ms:400
              ~mbps:(12. +. (6. *. float_of_int i));
          min_rtt_ms = (if i = 1 then 30 else 40);
          buffer_pkts = 120;
          mtu_bytes = Env.default_mtu;
          initial_cwnd = 10.;
          impairments =
            (if i = 3 then
               {
                 Env.random_loss = 0.02;
                 ack_jitter_ms = 3;
                 reorder_prob = 0.1;
                 reorder_ms = 8;
                 seed = 11;
               }
             else Env.no_impairments);
        })
  in
  List.mapi
    (fun i crc -> (Printf.sprintf "fleet/flow%d" i, crc))
    (fleet_stream_digests cfgs ~window:(fun i seg ->
         4. +. float_of_int (((i * 7) + (seg * 13)) mod 40)))

(* The impairment settings of the single-impairment links and of the
   impaired coexistence mixes. *)
let one_impairment_each =
  [
    ("random-loss", { Env.no_impairments with random_loss = 0.05; seed = 21 });
    ("jitter", { Env.no_impairments with ack_jitter_ms = 4; seed = 22 });
    ( "reorder",
      { Env.no_impairments with reorder_prob = 0.1; reorder_ms = 8; seed = 23 }
    );
  ]

(* One impairment per link: random loss alone (losses interleave with
   the same millisecond's ACKs in arrival order), ACK jitter alone and
   reordering alone (events arrive out of order). The windows overflow
   the 60-packet buffer in some segments, so tail-drop bursts mix with
   each stream. *)
let single_impairment_digests () =
  let cfgs =
    Array.of_list
      (List.map
         (fun (name, impairments) ->
           {
             Env.trace = Trace.constant ~name ~duration_ms:400 ~mbps:24.;
             min_rtt_ms = 40;
             buffer_pkts = 60;
             mtu_bytes = Env.default_mtu;
             initial_cwnd = 10.;
             impairments;
           })
         one_impairment_each)
  in
  let windows = [| 20.; 90.; 200.; 30.; 150.; 8.; 120.; 60. |] in
  List.map2
    (fun (name, _) crc -> ("fleet/" ^ name, crc))
    one_impairment_each
    (fleet_stream_digests cfgs ~window:(fun _ seg -> windows.(seg)))

let test_fleet_events () =
  check_family ~prefix:"fleet/"
    (mixed_fleet_digests () @ single_impairment_digests ())

(* ------------------------------------------------------------------ *)
(* (d) Certificates *)

(* The certificate inputs of every step of the clean [agent/...]
   episodes, in episode order. *)
let cert_contexts =
  lazy
    (Array.of_list
       (List.concat_map (fun (_, (_, contexts)) -> contexts)
          (Lazy.force clean_runs)))

let add_interval b iv =
  add_float b (Interval.lo iv);
  add_float b (Interval.hi iv)

let add_certificate b (cert : Certify.t) =
  Array.iter
    (fun (c : Certify.component) ->
      add_interval b c.action;
      add_interval b c.output;
      add_float b c.distance;
      add_float b (if c.certified then 1. else 0.))
    cert.components;
  add_float b cert.r_verifier

(* One digest over every [every]-th context. *)
let cert_digest ~every certify =
  let b = digest () in
  Array.iteri
    (fun i (state, cwnd_tcp, prev_cwnd) ->
      if i mod every = 0 then
        add_certificate b (certify ~state ~cwnd_tcp ~prev_cwnd))
    (Lazy.force cert_contexts);
  crc b

(* Witnesses of [Certify.refute] over the uncertified components of a
   batched box certificate, one PRNG per digest. *)
let refute_digest ~every ~actor ~property =
  let b = digest () in
  let rng = Prng.create 5 in
  Array.iteri
    (fun i (state, cwnd_tcp, prev_cwnd) ->
      if i mod every = 0 then begin
        let cert =
          Certify.certify ~actor ~property ~n_components:10 ~history:5 ~state
            ~cwnd_tcp ~prev_cwnd ()
        in
        Array.iter
          (fun c ->
            match
              Certify.refute ~samples:16 ~rng ~actor ~history:5
                ~state ~cwnd_tcp ~prev_cwnd c
            with
            | Certify.Violation { state; output } ->
                add_floats b state;
                add_float b output
            | Certify.Unknown -> add_float b nan)
          cert.components
      end)
    (Lazy.force cert_contexts);
  crc b

(* Two actors (the committed fixture and a seeded untrained hidden-64
   actor) and the tree distilled from the fixture actor, under both
   properties. The per-slice, zonotope, adaptive and refutation passes
   are slow, so they digest a subsample of the steps. *)
let test_certificates () =
  let history = 5 and n_components = 50 in
  let actors =
    [
      ("h8", Lazy.force fixture_actor);
      ( "h64",
        Mlp.actor ~rng:(Prng.create 9) ~in_dim:35 ~hidden:64 ~out_dim:1 );
    ]
  in
  let _, tree, _, _ = Lazy.force Test_distill.distilled_fixture in
  let properties =
    [ ("perf", Property.performance ()); ("rob", Property.robustness ()) ]
  in
  let mlp_engines =
    [
      ( "box", 3,
        fun ~actor ~property ~state ~cwnd_tcp ~prev_cwnd ->
          Certify.certify ~actor ~property ~n_components ~history ~state
            ~cwnd_tcp ~prev_cwnd () );
      ( "per_slice", 8,
        fun ~actor ~property ~state ~cwnd_tcp ~prev_cwnd ->
          Certify.certify ~engine:Certify.Per_slice ~actor ~property
            ~n_components:10 ~history ~state ~cwnd_tcp ~prev_cwnd () );
      ( "zonotope", 16,
        fun ~actor ~property ~state ~cwnd_tcp ~prev_cwnd ->
          Certify.certify ~domain:Certify.Zonotope_domain ~actor ~property
            ~n_components:10 ~history ~state ~cwnd_tcp ~prev_cwnd () );
      ( "adaptive", 4,
        fun ~actor ~property ~state ~cwnd_tcp ~prev_cwnd ->
          Certify.certify_adaptive ~actor ~property ~max_components:16
            ~history ~state ~cwnd_tcp ~prev_cwnd () );
    ]
  in
  let mlp =
    List.concat_map
      (fun (ename, every, certify) ->
        List.concat_map
          (fun (aname, actor) ->
            List.map
              (fun (pname, property) ->
                ( Printf.sprintf "cert/%s/%s/%s" ename aname pname,
                  cert_digest ~every (certify ~actor ~property) ))
              properties)
          actors)
      mlp_engines
  in
  let trees =
    List.concat_map
      (fun (tname, conservative, every) ->
        List.map
          (fun (pname, property) ->
            ( Printf.sprintf "cert/%s/%s" tname pname,
              cert_digest ~every (fun ~state ~cwnd_tcp ~prev_cwnd ->
                  Certify.certify_tree ~conservative ~tree ~property
                    ~n_components ~history ~state ~cwnd_tcp ~prev_cwnd ()) ))
          properties)
      [ ("tree_exact", false, 1); ("tree_conservative", true, 4) ]
  in
  let refutes =
    List.concat_map
      (fun (aname, actor) ->
        List.map
          (fun (pname, property) ->
            ( Printf.sprintf "cert/refute/%s/%s" aname pname,
              refute_digest ~every:32 ~actor ~property ))
          properties)
      actors
  in
  check_family ~prefix:"cert/" (mlp @ trees @ refutes)

(* ------------------------------------------------------------------ *)
(* (e) Shared bottlenecks *)

let add_coexist b (r : Eval.coexist_result) =
  Array.iter
    (fun (f : Eval.coexist_flow) ->
      add_floats b
        [| f.throughput_mbps; f.avg_qdelay_ms; f.loss_rate; f.share |])
    r.flows;
  add_float b r.jain;
  add_float b r.utilization

let coexist_digest ?arrivals ?impairments ~flows link =
  let b = digest () in
  add_coexist b (Eval.eval_coexist ?arrivals ?impairments ~flows link);
  crc b

(* Per-flow ack and loss event streams, then the flow's counters, of
   three Cubic flows at minRTT 20/40/60 ms on one 36 Mbps link: their
   return events interleave out of arrival order. *)
let hetero_rtt_digests () =
  let trace = Trace.constant ~name:"const36" ~duration_ms:1_000 ~mbps:36. in
  let cfgs =
    Array.map
      (fun min_rtt_ms ->
        {
          Env.trace;
          min_rtt_ms;
          buffer_pkts = 150;
          mtu_bytes = Env.default_mtu;
          initial_cwnd = 10.;
          impairments = Env.no_impairments;
        })
      [| 20; 40; 60 |]
  in
  let n = Array.length cfgs in
  let fleet = Fleet.create ~link:(Array.make n 0) cfgs in
  let ctrls = Array.init n (fun _ -> Eval.cubic_scheme ()) in
  let bufs = Array.init n (fun _ -> digest ()) in
  let handlers =
    Array.init n (fun i ->
        Env.chain (digest_events bufs.(i))
          (Canopy_cc.Controller.handlers ctrls.(i)))
  in
  let after_tick i =
    Fleet.set_cwnd fleet ~flow:i (ctrls.(i).Canopy_cc.Controller.cwnd ())
  in
  Fleet.run ~after_tick fleet handlers ~ms:1_000;
  List.init n (fun flow ->
      let b = bufs.(flow) in
      add_int b (Fleet.sent fleet ~flow);
      add_int b (Fleet.delivered fleet ~flow);
      add_int b (Fleet.dropped fleet ~flow);
      add_int b (Fleet.inflight fleet ~flow);
      add_floats b
        [|
          Fleet.cwnd fleet ~flow;
          Fleet.avg_qdelay_ms fleet ~flow;
          Fleet.throughput_mbps fleet ~flow;
        |];
      (Printf.sprintf "multiflow/hetero-rtt/flow%d" flow, crc b))

(* Two-flow mixes on three suite traces (500 ms, 2 BDP, the suite
   minRTT) with the committed fixture actor as the Canopy policy, then
   the Canopy/Cubic mix on a 0.5-BDP buffer with Cubic arriving at
   150 ms, then the Cubic/Cubic mix on one link per impairment. *)
let test_multiflow () =
  let canopy = Eval.Coexist_canopy (`Mlp (Lazy.force fixture_actor)) in
  let tcp name make = Eval.Coexist_tcp (name, make) in
  let mixes =
    [
      ("canopy-cubic", [ canopy; tcp "cubic" Eval.cubic_scheme ]);
      ("canopy-bbr", [ canopy; tcp "bbr" Eval.bbr_scheme ]);
      ( "cubic-cubic",
        [ tcp "cubic" Eval.cubic_scheme; tcp "cubic" Eval.cubic_scheme ] );
    ]
  in
  let links = Array.of_list (suite_links ()) in
  let link i ~bdp =
    let _, trace, min_rtt_ms, _ = links.(i) in
    Eval.link ~min_rtt_ms ~bdp ~duration_ms:500 trace
  in
  let name i =
    let n, _, _, _ = links.(i) in
    n
  in
  let clean =
    List.concat_map
      (fun i ->
        List.map
          (fun (mix, flows) ->
            ( Printf.sprintf "multiflow/clean/%s/%s" mix (name i),
              coexist_digest ~flows (link i ~bdp:2.) ))
          mixes)
      [ 10; 16; 19 ]
  in
  let shallow =
    ( Printf.sprintf "multiflow/shallow/canopy-cubic/%s" (name 7),
      coexist_digest ~arrivals:[| 0; 150 |]
        ~flows:(List.assoc "canopy-cubic" mixes)
        (link 7 ~bdp:0.5) )
  in
  let impaired =
    List.map
      (fun (impairment, impairments) ->
        ( "multiflow/impaired/" ^ impairment,
          coexist_digest ~impairments ~flows:(List.assoc "cubic-cubic" mixes)
            (link 16 ~bdp:2.) ))
      one_impairment_each
  in
  check_family ~prefix:"multiflow/"
    ((clean @ [ shallow ] @ hetero_rtt_digests ()) @ impaired)

(* ------------------------------------------------------------------ *)
(* (f) TD3 updates and training *)

module Td3 = Canopy_rl.Td3
module Trainer = Canopy.Trainer
module Checkpoint = Canopy_nn.Checkpoint

(* A dozen updates (six of them move the actor and the targets) from a
   seeded replay of 200 random transitions, every 17th absorbing. Then
   the checkpoint text of all six networks, which holds every parameter
   and batch-norm statistic as a hex float, and the greedy actions and
   Q-values at four replayed states. *)
let td3_digest ~batch_size =
  let cfg =
    {
      (Td3.default_config ~state_dim:6 ~action_dim:2) with
      Td3.hidden = 16;
      batch_size;
      warmup = batch_size;
      buffer_capacity = 256;
    }
  in
  let agent = Td3.create ~rng:(Prng.create 41) cfg in
  let data = Prng.create 42 in
  let rv n = Array.init n (fun _ -> Prng.uniform data (-1.) 1.) in
  let states = Array.init 200 (fun _ -> rv 6) in
  Array.iteri
    (fun i state ->
      Td3.observe agent
        {
          Canopy_rl.Replay_buffer.state;
          action = rv 2;
          reward = Prng.uniform data (-1.) 1.;
          next_state = rv 6;
          terminal = i mod 17 = 16;
          truncated = false;
        })
    states;
  for _ = 1 to 12 do
    Td3.update agent
  done;
  let b = digest () in
  List.iter
    (fun (_, net) -> Buffer.add_string b (Checkpoint.to_string net))
    (Td3.snapshot agent).nets;
  for i = 0 to 3 do
    let state = states.(i * 50) in
    let action = Td3.select_action agent state in
    add_floats b action;
    let q1, q2 = Td3.q_values agent ~state ~action in
    add_floats b [| q1; q2 |]
  done;
  crc b

(* 400 steps at hidden 16 on two links: the first 256 fill the replay,
   the rest take one batch-64 update each. *)
let trainer_digest () =
  let envs =
    Trainer.env_pool ~n:2 ~bw_range_mbps:(12., 24.) ~rtt_range_ms:(20, 30)
      ~duration_ms:1500 ~seed:3 ()
  in
  let cfg =
    {
      (Trainer.default_config ~total_steps:400 ~envs ()) with
      hidden = 16;
      log_every = 100;
    }
  in
  let agent, epochs = Trainer.train cfg in
  let b = digest () in
  Buffer.add_string b
    (Crc32.to_hex (Crc32.string (Checkpoint.to_string (Td3.actor agent))));
  List.iter
    (fun (e : Trainer.epoch) ->
      add_int b e.epoch;
      add_int b e.steps;
      add_floats b
        [| e.raw_reward; e.verifier_reward; e.combined_reward; e.fcc |];
      add_int b e.rollbacks)
    epochs;
  crc b

let test_td3 () =
  check_family ~prefix:"td3/"
    (List.map
       (fun batch_size ->
         (Printf.sprintf "td3/update/b%d" batch_size, td3_digest ~batch_size))
       [ 16; 24; 40; 64; 33; 50 ]
    @ [ ("td3/trainer/h16", trainer_digest ()) ])

let suite =
  [
    Alcotest.test_case "agent_env episodes, suite x clean/impaired" `Quick
      test_agent_episodes;
    Alcotest.test_case "multiflow: coexistence mixes and event streams" `Quick
      test_multiflow;
    Alcotest.test_case "runner metrics, five schemes x suite" `Quick
      test_runner_metrics;
    Alcotest.test_case "fleet event streams, five flows" `Quick
      test_fleet_events;
    Alcotest.test_case "certificates, engines x models x properties" `Quick
      test_certificates;
    Alcotest.test_case "td3 updates and a training run" `Quick test_td3;
  ]
