module Prng = Canopy_util.Prng
module Trace = Canopy_trace.Trace
module Env = Canopy_netsim.Env

type params = {
  base_mbps : float;
  step_ratio : float;
  step_period_ms : float;
  fade_depth : float;
  fade_period_ms : float;
  min_rtt_ms : float;
  jitter_ms : float;
  loss : float;
  reorder_prob : float;
  reorder_ms : float;
  cross_frac : float;
  cross_on_ms : float;
  cross_off_ms : float;
  arrival_spread_ms : float;
}

type dim = { dim_name : string; lo : float; hi : float }

(* The box. Bounds are chosen so every compiled scenario is a valid
   simulator configuration (Fleet.create validation passes for any point)
   while still covering conditions far outside the 22-trace suite. *)
let dims =
  [|
    { dim_name = "base_mbps"; lo = 4.; hi = 160. };
    { dim_name = "step_ratio"; lo = 0.05; hi = 1. };
    { dim_name = "step_period_ms"; lo = 200.; hi = 8_000. };
    { dim_name = "fade_depth"; lo = 0.; hi = 0.9 };
    { dim_name = "fade_period_ms"; lo = 400.; hi = 10_000. };
    { dim_name = "min_rtt_ms"; lo = 10.; hi = 150. };
    { dim_name = "jitter_ms"; lo = 0.; hi = 30. };
    { dim_name = "loss"; lo = 0.; hi = 0.08 };
    { dim_name = "reorder_prob"; lo = 0.; hi = 0.5 };
    { dim_name = "reorder_ms"; lo = 0.; hi = 40. };
    { dim_name = "cross_frac"; lo = 0.; hi = 0.8 };
    { dim_name = "cross_on_ms"; lo = 100.; hi = 4_000. };
    { dim_name = "cross_off_ms"; lo = 100.; hi = 4_000. };
    { dim_name = "arrival_spread_ms"; lo = 0.; hi = 4_000. };
  |]

let n_dims = Array.length dims

(* [Float.min]/[Float.max] return a NaN argument unchanged, so a NaN
   coordinate would leave the box: it fails here instead. *)
let clamp v =
  if Array.length v <> n_dims then invalid_arg "Space.clamp: vector length";
  Array.mapi
    (fun i x ->
      if Float.is_nan x then invalid_arg "Space.clamp: NaN coordinate";
      let d = dims.(i) in
      Float.min d.hi (Float.max d.lo x))
    v

let of_vector v =
  let v = clamp v in
  {
    base_mbps = v.(0);
    step_ratio = v.(1);
    step_period_ms = v.(2);
    fade_depth = v.(3);
    fade_period_ms = v.(4);
    min_rtt_ms = v.(5);
    jitter_ms = v.(6);
    loss = v.(7);
    reorder_prob = v.(8);
    reorder_ms = v.(9);
    cross_frac = v.(10);
    cross_on_ms = v.(11);
    cross_off_ms = v.(12);
    arrival_spread_ms = v.(13);
  }

let to_vector p =
  [|
    p.base_mbps;
    p.step_ratio;
    p.step_period_ms;
    p.fade_depth;
    p.fade_period_ms;
    p.min_rtt_ms;
    p.jitter_ms;
    p.loss;
    p.reorder_prob;
    p.reorder_ms;
    p.cross_frac;
    p.cross_on_ms;
    p.cross_off_ms;
    p.arrival_spread_ms;
  |]

let sample rng = Array.map (fun d -> Prng.uniform rng d.lo d.hi) dims

(* Every caller clamps to the (finite) box bounds first, and the clamp
   rejects NaN, so the value is always in range for the conversion. *)
let round_pos x =
  max 0 (int_of_float (Float.floor (x +. 0.5))) (* lint-ignore: int-of-float *)

type compiled = {
  trace : Trace.t;
  impairments : Env.impairments;
  c_min_rtt_ms : int;
  arrivals : int array;
}

let n_cross_flows = 2
let ms_per_sample = 20

let compile ?name ~duration_ms ~seed p =
  if duration_ms <= 0 then invalid_arg "Space.compile: duration_ms";
  let p = of_vector (to_vector p) (* re-clamp hand-built records *) in
  let name =
    match name with Some n -> n | None -> Printf.sprintf "adv-%d" seed
  in
  (* Independent child streams, derived before any draw so the trace
     wobble and the arrival offsets never alias (PR-5 style). *)
  let master = Prng.create seed in
  let wobble_rng = Prng.split master 0 in
  let arrival_rng = Prng.split master 1 in
  let n_samples = max 1 (duration_ms / ms_per_sample) in
  let two_pi = 8. *. Float.atan 1. in
  let mbps =
    Array.init n_samples (fun s ->
        let t = float_of_int (s * ms_per_sample) in
        let step =
          if Float.rem t (2. *. p.step_period_ms) < p.step_period_ms then 1.
          else p.step_ratio
        in
        let fade =
          1.
          -. (p.fade_depth *. 0.5
             *. (1. -. Float.cos (two_pi *. t /. p.fade_period_ms)))
        in
        let cross =
          if Float.rem t (p.cross_on_ms +. p.cross_off_ms) < p.cross_on_ms
          then p.cross_frac *. p.base_mbps
          else 0.
        in
        let wobble = Prng.uniform wobble_rng 0.95 1.05 in
        Float.max 0. ((p.base_mbps *. step *. fade *. wobble) -. cross))
  in
  let trace = Trace.of_mbps_array ~name ~ms_per_sample mbps in
  let impairments =
    {
      Env.random_loss = p.loss;
      ack_jitter_ms = round_pos p.jitter_ms;
      reorder_prob = p.reorder_prob;
      reorder_ms = round_pos p.reorder_ms;
      seed;
    }
  in
  let spread = round_pos p.arrival_spread_ms in
  let arrivals =
    Array.init n_cross_flows (fun _ ->
        if spread = 0 then 0 else Prng.int arrival_rng (spread + 1))
  in
  { trace; impairments; c_min_rtt_ms = round_pos p.min_rtt_ms; arrivals }

let pp_params ppf p =
  let v = to_vector p in
  Array.iteri
    (fun i d -> Format.fprintf ppf "%s=%.4g " d.dim_name v.(i))
    dims
