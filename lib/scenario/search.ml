module Prng = Canopy_util.Prng
module Pool = Canopy_util.Pool
module Eval = Canopy.Eval
module Mlp = Canopy_nn.Mlp

type objective =
  | Min_utility
  | Max_p95_delay
  | Max_violation of Canopy.Property.t * int
  | Min_jain

let objective_name = function
  | Min_utility -> "utility"
  | Max_p95_delay -> "p95"
  | Max_violation _ -> "violation"
  | Min_jain -> "jain"

let objective_of_name = function
  | "utility" -> Min_utility
  | "p95" -> Max_p95_delay
  | "violation" -> Max_violation (Canopy.Property.performance (), 10)
  | "jain" -> Min_jain
  | other -> failwith (Printf.sprintf "unknown objective %S" other)

(* Scalar policy goodness for the utility objective: utilization,
   discounted by the p95 queueing-delay-to-minRTT ratio and the loss
   rate. Monotone in each metric, so minimizing it pushes the search
   toward scenarios that are genuinely bad for the policy rather than
   merely low-bandwidth. *)
let utility ~min_rtt_ms (r : Eval.result) =
  r.Eval.utilization -. r.Eval.loss_rate
  -. (r.Eval.p95_qdelay_ms /. (2. *. float_of_int min_rtt_ms))

type config = {
  seed : int;
  duration_ms : int;
  history : int;
  random_candidates : int;
  cem_rounds : int;
  cem_batch : int;
  elite_frac : float;
}

let default_config ?(seed = 1) () =
  {
    seed;
    duration_ms = 8_000;
    history = 5;
    random_candidates = 24;
    cem_rounds = 3;
    cem_batch = 16;
    elite_frac = 0.25;
  }

let smoke_config ?(seed = 1) () =
  {
    seed;
    duration_ms = 2_000;
    history = 5;
    random_candidates = 16;
    cem_rounds = 2;
    cem_batch = 10;
    elite_frac = 0.25;
  }

type candidate = {
  idx : int;
  vector : float array;
  params : Space.params;
  scn_seed : int;
  score : float;
}

type result = {
  worst : candidate;
  evaluated : int;
  round_best : float list;
}

let score_compiled ?refute_rng ~actor ~history ~duration_ms objective
    (c : Space.compiled) =
  let link =
    Eval.link ~min_rtt_ms:c.Space.c_min_rtt_ms ~bdp:2. ~duration_ms
      c.Space.trace
  in
  match objective with
  | Min_utility ->
      let r, _ =
        Eval.eval_policy ~impairments:c.Space.impairments ~policy:(`Mlp actor)
          ~history link
      in
      utility ~min_rtt_ms:c.Space.c_min_rtt_ms r
  | Max_p95_delay ->
      let r, _ =
        Eval.eval_policy ~impairments:c.Space.impairments ~policy:(`Mlp actor)
          ~history link
      in
      -.r.Eval.p95_qdelay_ms
  | Max_violation (property, n) ->
      let r, _ =
        Eval.eval_policy ~impairments:c.Space.impairments
          ~certificate:(property, n) ?refute_rng ~policy:(`Mlp actor) ~history
          link
      in
      (* Violation pressure = fraction of uncertified components with a
         concrete counterexample; 0 when everything certifies. *)
      -.Option.value ~default:0. r.Eval.refuted
  | Min_jain ->
      let flows =
        Eval.Coexist_canopy (`Mlp actor)
        :: List.init Space.n_cross_flows (fun _ ->
               Eval.Coexist_tcp ("cubic", Eval.cubic_scheme))
      in
      let arrivals = Array.append [| 0 |] c.Space.arrivals in
      let r =
        Eval.eval_coexist ~history ~arrivals ~impairments:c.Space.impairments
          ~flows link
      in
      r.Eval.jain

(* Lower score first; global evaluation index breaks exact ties so the
   ordering is a pure function of the candidate set. *)
let cmp_candidate a b =
  let c = Float.compare a.score b.score in
  if c <> 0 then c else Int.compare a.idx b.idx

let search cfg ~actor objective =
  if cfg.random_candidates < 1 then invalid_arg "Search.search: candidates";
  if cfg.cem_batch < 1 then invalid_arg "Search.search: cem_batch";
  if cfg.elite_frac <= 0. || cfg.elite_frac > 1. then
    invalid_arg "Search.search: elite_frac";
  let master = Prng.create cfg.seed in
  (* Child 0 drives all candidate sampling; children 1.. are per-
     candidate streams (scenario seed + refutation), derived on the main
     thread by global index before any fan-out. *)
  let sample_rng = Prng.split master 0 in
  let next_idx = ref 1 in
  let eval_vectors vectors =
    let prepared =
      List.map
        (fun v ->
          let idx = !next_idx in
          incr next_idx;
          let child = Prng.split master idx in
          let scn_seed = Int64.to_int (Prng.bits64 child) land 0x3FFFFFFF in
          (idx, v, scn_seed, child))
        vectors
    in
    Pool.map_list
      (fun (idx, v, scn_seed, refute_rng) ->
        let params = Space.of_vector v in
        let compiled =
          Space.compile ~duration_ms:cfg.duration_ms ~seed:scn_seed params
        in
        let score =
          score_compiled ~refute_rng ~actor ~history:cfg.history
            ~duration_ms:cfg.duration_ms objective compiled
        in
        { idx; vector = Space.clamp v; params; scn_seed; score })
      prepared
  in
  let random_vectors =
    List.init cfg.random_candidates (fun _ -> Space.sample sample_rng)
  in
  let all = ref (eval_vectors random_vectors) in
  let best () = List.hd (List.sort cmp_candidate !all) in
  let round_best = ref [ (best ()).score ] in
  for _round = 1 to cfg.cem_rounds do
    let sorted = List.sort cmp_candidate !all in
    let k =
      max 2
        (Space.round_pos (cfg.elite_frac *. float_of_int (List.length sorted)))
    in
    let elites = List.filteri (fun i _ -> i < k) sorted in
    let ne = float_of_int (List.length elites) in
    (* Per-coordinate elite mean and stddev, with a floor of 2% of the
       box width so the sampler never collapses to a point. *)
    let mean = Array.make Space.n_dims 0. in
    List.iter
      (fun c -> Array.iteri (fun d x -> mean.(d) <- mean.(d) +. x) c.vector)
      elites;
    Array.iteri (fun d s -> mean.(d) <- s /. ne) mean;
    let sigma = Array.make Space.n_dims 0. in
    List.iter
      (fun c ->
        Array.iteri
          (fun d x ->
            let dx = x -. mean.(d) in
            sigma.(d) <- sigma.(d) +. (dx *. dx))
          c.vector)
      elites;
    Array.iteri
      (fun d s ->
        let width = Space.dims.(d).Space.hi -. Space.dims.(d).Space.lo in
        sigma.(d) <- Float.max (Float.sqrt (s /. ne)) (0.02 *. width))
      sigma;
    let resampled =
      List.init cfg.cem_batch (fun _ ->
          Space.clamp
            (Array.init Space.n_dims (fun d ->
                 Prng.gaussian_scaled sample_rng ~mu:mean.(d) ~sigma:sigma.(d))))
    in
    all := !all @ eval_vectors resampled;
    round_best := (best ()).score :: !round_best
  done;
  {
    worst = best ();
    evaluated = List.length !all;
    round_best = List.rev !round_best;
  }

let suite_worst ~duration_ms ~history ~actor objective =
  let traces = Canopy_trace.Suite.all ~duration_ms () in
  let clean trace =
    {
      Space.trace;
      impairments = Canopy_netsim.Env.no_impairments;
      c_min_rtt_ms = 40;
      arrivals = Array.make Space.n_cross_flows 0;
    }
  in
  (* Refutation streams (used by Max_violation) are split by trace index
     before the fan-out, per the run_tasks contract. *)
  let master = Prng.create 0 in
  let tasks =
    List.mapi (fun i trace -> (Prng.split master i, trace)) traces
  in
  let scores =
    Pool.map_list
      (fun (refute_rng, trace) ->
        ( Canopy_trace.Trace.name trace,
          score_compiled ~refute_rng ~actor ~history ~duration_ms objective
            (clean trace) ))
      tasks
  in
  match scores with
  | [] -> invalid_arg "Search.suite_worst: empty suite"
  | first :: rest ->
      List.fold_left
        (fun (bn, bs) (n, s) -> if Float.compare s bs < 0 then (n, s) else (bn, bs))
        first rest
