module Agent_env = Canopy_orca.Agent_env
module Fleet_env = Canopy_orca.Fleet_env
module Observation = Canopy_orca.Observation
module Fleet = Canopy_netsim.Fleet
module Stats = Canopy_util.Stats
module Mat = Canopy_tensor.Mat

type result = {
  scheme : string;
  trace : string;
  utilization : float;
  avg_thr_mbps : float;
  avg_qdelay_ms : float;
  p95_qdelay_ms : float;
  loss_rate : float;
  fcc : float option;
  fcs : float option;
  refuted : float option;
}

let pp_result ppf r =
  Format.fprintf ppf
    "%-12s %-22s util=%5.1f%% thr=%6.2fMbps qdelay(avg/p95)=%6.1f/%6.1fms \
     loss=%5.2f%%"
    r.scheme r.trace (100. *. r.utilization) r.avg_thr_mbps r.avg_qdelay_ms
    r.p95_qdelay_ms (100. *. r.loss_rate);
  (match (r.fcc, r.fcs) with
  | Some fcc, Some fcs -> Format.fprintf ppf " fcc=%.3f fcs=%.3f" fcc fcs
  | _ -> ());
  match r.refuted with
  | Some rate -> Format.fprintf ppf " refuted=%.3f" rate
  | None -> ()

type step_record = {
  t_ms : int;
  action : float;
  cwnd_tcp : float;
  cwnd_enforced : float;
  thr_mbps : float;
  qdelay_ms : float;
  delay_norm : float;
  raw_reward : float;
  certificate : Certify.t option;
}

type link = {
  trace : Canopy_trace.Trace.t;
  min_rtt_ms : int;
  bdp_multiplier : float;
  duration_ms : int;
}

let link ?(min_rtt_ms = 40) ?(bdp = 2.) ?duration_ms trace =
  let duration_ms =
    Option.value ~default:(Canopy_trace.Trace.duration_ms trace) duration_ms
  in
  { trace; min_rtt_ms; bdp_multiplier = bdp; duration_ms }

let buffer_pkts link =
  Canopy_cc.Runner.buffer_of_bdp ~bdp_multiplier:link.bdp_multiplier
    ~trace:link.trace ~min_rtt_ms:link.min_rtt_ms

let clamp_action = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

let eval_policy ?(name = "canopy") ?noise ?certificate ?refute_rng ?shield
    ?(impairments = Canopy_netsim.Env.no_impairments)
    ?(collect_steps = false) ~policy ~history link =
  let delay_noise =
    Option.map
      (fun (seed, mu) -> (Canopy_util.Prng.create seed, mu))
      noise
  in
  let cfg =
    {
      (Agent_env.default_config ~trace:link.trace ~min_rtt_ms:link.min_rtt_ms
         ~buffer_pkts:(buffer_pkts link) ~duration_ms:link.duration_ms)
      with
      history;
      delay_noise;
      impairments;
    }
  in
  let env = Agent_env.create cfg in
  (* Per-step inference goes through the batched scratch-backed path as
     a 1-row block: [Policy.predict_rows_into] rows are bit-identical to
     the scalar forward for both policy kinds, so this changes no
     trajectory — it just keeps the whole serving stack (scalar eval and
     fleet alike) on one code path with no per-step output allocation. *)
  if Policy.in_dim policy <> Agent_env.state_dim cfg then
    invalid_arg "Eval.eval_policy: policy input dim";
  let xrow = Mat.create ~rows:1 ~cols:(Policy.in_dim policy) in
  let yrow = Mat.create_uninit ~rows:1 ~cols:(Policy.out_dim policy) in
  let steps = ref [] in
  let fcc_acc = ref 0. and fcs_acc = ref 0 and nsteps = ref 0 in
  let uncertified_acc = ref 0 and refuted_acc = ref 0 in
  let finished = ref false in
  while not !finished do
    let s = Agent_env.state env in
    Array.blit s 0 (Mat.raw xrow) 0 (Array.length s);
    Policy.predict_rows_into ~dst:yrow policy xrow;
    let action = clamp_action (Mat.raw yrow).(0) in
    let action =
      match shield with
      | None -> action
      | Some sh ->
          fst
            (Shield.filter sh ~state:s ~cwnd_tcp:(Agent_env.cwnd_tcp env)
               ~prev_cwnd:(Agent_env.prev_cwnd_enforced env) ~action)
    in
    let cert =
      Option.map
        (fun (property, n) ->
          match policy with
          | `Mlp actor ->
              Certify.certify ~actor ~property ~n_components:n
                ~history ~state:s
                ~cwnd_tcp:(Agent_env.cwnd_tcp env)
                ~prev_cwnd:(Agent_env.prev_cwnd_enforced env) ()
          | `Tree tree ->
              (* exact per-leaf certification: no abstract engine *)
              Certify.certify_tree ~tree ~property ~n_components:n ~history
                ~state:s
                ~cwnd_tcp:(Agent_env.cwnd_tcp env)
                ~prev_cwnd:(Agent_env.prev_cwnd_enforced env) ())
        certificate
    in
    (match cert with
    | Some c ->
        fcc_acc := !fcc_acc +. c.Certify.fcc;
        if c.Certify.fcs then incr fcs_acc;
        (* Counterexample search over the step's uncertified components,
           separating real violations from abstraction artifacts.  Only
           meaningful for the MLP: tree certificates are exact, so an
           uncertified tree component already is a genuine overlap with
           the bad region — there is no abstraction slack to refute. *)
        (match policy with
        | `Tree _ -> ()
        | `Mlp actor ->
            Option.iter
              (fun rng ->
                Array.iter
                  (fun comp ->
                    if not comp.Certify.certified then begin
                      incr uncertified_acc;
                      match
                        Certify.refute ~rng ~actor ~history ~state:s
                          ~cwnd_tcp:(Agent_env.cwnd_tcp env)
                          ~prev_cwnd:(Agent_env.prev_cwnd_enforced env) comp
                      with
                      | Certify.Violation _ -> incr refuted_acc
                      | Certify.Unknown -> ()
                    end)
                  c.Certify.components)
              refute_rng)
    | None -> ());
    incr nsteps;
    let res = Agent_env.step env ~action in
    if collect_steps then
      steps :=
        {
          t_ms = Agent_env.interval_ms env * !nsteps;
          action;
          cwnd_tcp = res.cwnd_tcp;
          cwnd_enforced = res.cwnd_enforced;
          thr_mbps = res.observation.Observation.thr_mbps;
          qdelay_ms = res.observation.Observation.avg_qdelay_ms;
          delay_norm = Observation.normalized_delay res.observation;
          raw_reward = res.raw_reward;
          certificate = cert;
        }
        :: !steps;
    finished := res.finished
  done;
  let st = Agent_env.env_stats env in
  (* Delay statistics straight from the exact histogram: the mean is its
     integer sum divided once and the p95 reads two order statistics, the
     bits of [Stats.mean] and [Stats.percentile] over the per-packet
     delays (DESIGN §12). *)
  let result =
    {
      scheme = name;
      trace = Canopy_trace.Trace.name link.trace;
      utilization = Agent_env.utilization env;
      avg_thr_mbps =
        float_of_int st.Canopy_netsim.Env.delivered
        *. float_of_int Canopy_netsim.Env.default_mtu *. 8. /. 1e6
        /. (float_of_int link.duration_ms /. 1000.);
      avg_qdelay_ms = Agent_env.avg_qdelay_ms env;
      p95_qdelay_ms =
        (if st.delivered = 0 then 0. else Agent_env.qdelay_percentile_ms env 95.);
      loss_rate = Agent_env.loss_rate env;
      fcc =
        (if certificate = None || !nsteps = 0 then None
         else Some (!fcc_acc /. float_of_int !nsteps));
      fcs =
        (if certificate = None || !nsteps = 0 then None
         else Some (float_of_int !fcs_acc /. float_of_int !nsteps));
      refuted =
        (match refute_rng with
        | None -> None
        | Some _ when certificate = None -> None
        | Some _ when (match policy with `Tree _ -> true | `Mlp _ -> false) ->
            None
        | Some _ ->
            if !uncertified_acc = 0 then Some 0.
            else
              Some
                (float_of_int !refuted_acc /. float_of_int !uncertified_acc));
    }
  in
  (result, List.rev !steps)

let eval_tcp ~name make link =
  let metrics =
    Canopy_cc.Runner.run ~trace:link.trace ~min_rtt_ms:link.min_rtt_ms
      ~buffer_pkts:(buffer_pkts link) ~duration_ms:link.duration_ms make
  in
  {
    scheme = name;
    trace = metrics.Canopy_cc.Runner.trace;
    utilization = metrics.utilization;
    avg_thr_mbps = metrics.avg_throughput_mbps;
    avg_qdelay_ms = metrics.avg_qdelay_ms;
    p95_qdelay_ms = metrics.p95_qdelay_ms;
    loss_rate = metrics.loss_rate;
    fcc = None;
    fcs = None;
    refuted = None;
  }

(* Parallel sweep over independent evaluation cells. Each task builds its
   own simulator (environments are created per call and share nothing
   mutable), so tasks are embarrassingly parallel; [Pool.map] keeps
   results in task order, and any task RNG must be derived {i before}
   this call (e.g. [Prng.split] by task index), so the sweep is
   bit-identical to running the tasks sequentially in list order. *)
let run_tasks tasks = Canopy_util.Pool.map_list (fun task -> task ()) tasks

let cubic_scheme () = Canopy_cc.Cubic.to_controller (Canopy_cc.Cubic.create ())
let vegas_scheme () = Canopy_cc.Vegas.to_controller (Canopy_cc.Vegas.create ())
let bbr_scheme () = Canopy_cc.Bbr.to_controller (Canopy_cc.Bbr.create ())

let vivace_scheme () =
  Canopy_cc.Vivace.to_controller (Canopy_cc.Vivace.create ())

let mean_results group results =
  match results with
  | [] -> invalid_arg "Eval.mean_results: empty"
  | first :: _ ->
      let n = float_of_int (List.length results) in
      let mean f = Canopy_util.Mathx.fsum_list (List.map f results) /. n in
      let mean_opt f =
        let vals = List.filter_map f results in
        if vals = [] then None
        else
          Some
            (Canopy_util.Mathx.fsum_list vals
            /. float_of_int (List.length vals))
      in
      {
        scheme = first.scheme;
        trace = group;
        utilization = mean (fun r -> r.utilization);
        avg_thr_mbps = mean (fun r -> r.avg_thr_mbps);
        avg_qdelay_ms = mean (fun r -> r.avg_qdelay_ms);
        p95_qdelay_ms = mean (fun r -> r.p95_qdelay_ms);
        loss_rate = mean (fun r -> r.loss_rate);
        fcc = mean_opt (fun r -> r.fcc);
        fcs = mean_opt (fun r -> r.fcs);
        refuted = mean_opt (fun r -> r.refuted);
      }

(* ------------------------------------------------------------------ *)
(* Cross-traffic coexistence on a shared bottleneck *)

type coexist_spec =
  | Coexist_canopy of Policy.t
  | Coexist_tcp of string * (unit -> Canopy_cc.Controller.t)

type coexist_flow = {
  scheme : string;
  throughput_mbps : float;
  avg_qdelay_ms : float;
  loss_rate : float;
  share : float;
}

type coexist_result = {
  trace : string;
  duration_ms : int;
  interval_ms : int;
  flows : coexist_flow array;
  jain : float;
  utilization : float;
}

let pp_coexist ppf (r : coexist_result) =
  Format.fprintf ppf "%s (%d flows, %d ms): jain=%.3f util=%.1f%%@."
    r.trace (Array.length r.flows) r.duration_ms r.jain
    (100. *. r.utilization);
  Array.iteri
    (fun i f ->
      Format.fprintf ppf
        "  flow %d %-8s thr=%6.2fMbps share=%5.1f%% qdelay=%6.1fms \
         loss=%5.2f%%@."
        i f.scheme f.throughput_mbps (100. *. f.share) f.avg_qdelay_ms
        (100. *. f.loss_rate))
    r.flows

let eval_coexist ?(history = 5) ?arrivals
    ?(impairments = Canopy_netsim.Env.no_impairments) ~flows (link : link) =
  let specs = Array.of_list flows in
  let n = Array.length specs in
  if n = 0 then invalid_arg "Eval.eval_coexist: no flows";
  (match arrivals with
  | Some a when Array.length a <> n || Array.exists (fun x -> x < 0) a ->
      invalid_arg "Eval.eval_coexist: arrivals"
  | _ -> ());
  (* Every flow is a [Fleet_env] flow on link 0: Canopy flows are agent
     flows, TCP flows plain ones. *)
  let cfg =
    {
      (Agent_env.default_config ~trace:link.trace ~min_rtt_ms:link.min_rtt_ms
         ~buffer_pkts:(buffer_pkts link) ~duration_ms:link.duration_ms)
      with
      history;
      impairments;
    }
  in
  let plain =
    Array.map
      (function
        | Coexist_canopy _ -> None | Coexist_tcp (_, make) -> Some (make ()))
      specs
  in
  let env =
    Fleet_env.create ~link:(Array.make n 0) ?start_ms:arrivals ~plain
      (Array.make n cfg)
  in
  (* Group Canopy flows by underlying model (physical equality on the
     MLP or tree, not on the [Policy.t] wrapper, which callers may
     allocate per flow) so each distinct model serves all of its flows
     with a single batched forward per decision tick. That forward runs
     over every flow's row; rows are independent, so a flow's action
     does not depend on the other rows. *)
  let same_model (p : Policy.t) (q : Policy.t) =
    match (p, q) with
    | `Mlp a, `Mlp b -> a == b
    | `Tree a, `Tree b -> a == b
    | (`Mlp _ | `Tree _), _ -> false
  in
  let groups =
    let acc = ref [] in
    Array.iteri
      (fun i spec ->
        match spec with
        | Coexist_tcp _ -> ()
        | Coexist_canopy policy -> (
            if Policy.in_dim policy <> Fleet_env.state_dim env then
              invalid_arg "Eval.eval_coexist: policy input dim";
            if Policy.out_dim policy <> 1 then
              invalid_arg "Eval.eval_coexist: policy output dim";
            match List.find_opt (fun (a, _) -> same_model a policy) !acc with
            | Some (_, ids) -> ids := i :: !ids
            | None -> acc := !acc @ [ (policy, ref [ i ]) ]))
      specs;
    List.map (fun (policy, ids) -> (policy, List.rev !ids)) !acc
  in
  let x = Mat.create ~rows:n ~cols:(Fleet_env.state_dim env) in
  let y = Mat.create_uninit ~rows:n ~cols:1 in
  let actions = Array.make n 0. in
  let interval_ms = Fleet_env.interval_ms env in
  while not (Fleet_env.finished env) do
    Fleet_env.write_states env ~dst:x;
    List.iter
      (fun (policy, ids) ->
        Policy.predict_rows_into ~dst:y policy x;
        List.iter (fun i -> actions.(i) <- clamp_action (Mat.raw y).(i)) ids)
      groups;
    let ms = Int.min interval_ms (link.duration_ms - Fleet_env.now_ms env) in
    ignore (Fleet_env.step ~ms env ~actions : Fleet_env.step_result)
  done;
  let fleet = Fleet_env.fleet env in
  let delivered = Array.init n (fun flow -> Fleet.delivered fleet ~flow) in
  let total_delivered = Array.fold_left ( + ) 0 delivered in
  let flows =
    Array.init n (fun i ->
        {
          scheme =
            (match specs.(i) with
            | Coexist_canopy _ -> "canopy"
            | Coexist_tcp (name, _) -> name);
          throughput_mbps = Fleet.throughput_mbps fleet ~flow:i;
          avg_qdelay_ms = Fleet.avg_qdelay_ms fleet ~flow:i;
          loss_rate = Fleet.loss_rate fleet ~flow:i;
          share =
            (if total_delivered = 0 then 0.
             else
               float_of_int delivered.(i) /. float_of_int total_delivered);
        })
  in
  let capacity = Fleet.capacity_pkts fleet ~flow:0 in
  {
    trace = Canopy_trace.Trace.name link.trace;
    duration_ms = link.duration_ms;
    interval_ms;
    flows;
    jain = Stats.jain_index (Array.map float_of_int delivered);
    utilization =
      (if capacity <= 0. then 0.
       else Float.min 1. (float_of_int total_delivered /. capacity));
  }

type noise_delta = {
  scheme : string;
  d_avg_qdelay_pct : float;
  d_p95_qdelay_pct : float;
  d_utilization_pct : float;
}

let pct_change ~from ~to_ =
  if Float.abs from < 1e-9 then 0. else 100. *. (to_ -. from) /. from

let noise_delta ~(clean : result) ~(noisy : result) =
  {
    scheme = clean.scheme;
    d_avg_qdelay_pct =
      pct_change ~from:clean.avg_qdelay_ms ~to_:noisy.avg_qdelay_ms;
    d_p95_qdelay_pct =
      pct_change ~from:clean.p95_qdelay_ms ~to_:noisy.p95_qdelay_ms;
    d_utilization_pct =
      pct_change ~from:clean.utilization ~to_:noisy.utilization;
  }
