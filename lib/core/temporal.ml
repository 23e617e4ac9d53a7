open Canopy_nn
open Canopy_absint
module Observation = Canopy_orca.Observation
module Fleet_env = Canopy_orca.Fleet_env

type env_model = { cwnd_tcp_drift : float; feature_slack : float }

let default_env_model = { cwnd_tcp_drift = 0.1; feature_slack = 0.05 }

type step_bound = {
  step : int;
  action : Interval.t;
  cwnd : Interval.t;
  delta_vs_start : Interval.t;
  distance : float;
  certified : bool;
}

type t = {
  case : Property.case;
  horizon : int;
  steps : step_bound list;
  certified : bool;
  r_verifier : float;
}

let clamp01 iv =
  match Interval.intersect iv (Interval.make 0. 1.) with
  | Some i -> i
  | None -> if Interval.hi iv < 0. then Interval.of_point 0. else Interval.of_point 1.

(* Abstract image of Eq. 1 when both the action and the backbone
   suggestion are intervals: 2^{2a} and cwnd_tcp are both positive, so
   the product's bounds are the products of the bounds, and the final
   clamp is monotone. *)
let cwnd_interval ~cwnd_tcp action =
  let factor = Interval.pow2 (Interval.scale 2. action) in
  let raw = Interval.mul factor cwnd_tcp in
  Interval.make
    (Canopy_util.Mathx.clamp ~lo:Fleet_env.min_enforced
       ~hi:Fleet_env.max_enforced (Interval.lo raw))
    (Canopy_util.Mathx.clamp ~lo:Fleet_env.min_enforced
       ~hi:Fleet_env.max_enforced (Interval.hi raw))

let verify ?(env_model = default_env_model) ?(domain = Certify.Box_domain)
    ~actor ~property ~case ~horizon ~history ~state ~cwnd_tcp () =
  if horizon <= 0 then invalid_arg "Temporal.verify: horizon";
  if history <= 0 then invalid_arg "Temporal.verify: history";
  if Array.length state <> history * Observation.feature_count then
    invalid_arg "Temporal.verify: state dimension";
  if Mlp.in_dim actor <> Array.length state then
    invalid_arg "Temporal.verify: actor input dimension";
  if env_model.cwnd_tcp_drift < 0. || env_model.feature_slack < 0. then
    invalid_arg "Temporal.verify: environment model";
  let delay_region =
    match (property, case) with
    | Property.Performance _, (Property.Large_delay | Property.Small_delay) ->
        Property.precondition_delay property case
    | Property.Performance _, Property.Noise | Property.Robustness _, _ ->
        invalid_arg "Temporal.verify: performance cases only"
  in
  let target =
    match case with
    | Property.Large_delay -> Interval.make Float.neg_infinity 0.
    | Property.Small_delay -> Interval.make 0. Float.infinity
    | Property.Noise -> assert false
  in
  let fc = Observation.feature_count in
  let start_cwnd = cwnd_tcp in
  (* Frames of the evolving abstract state, oldest first. *)
  let frames =
    ref
      (List.init history (fun frame ->
           Array.init fc (fun j -> Interval.of_point state.((frame * fc) + j))))
  in
  (* The most recent concrete frame anchors the wander of the non-delay
     features of synthesized future frames. *)
  let anchor = Array.sub state ((history - 1) * fc) fc in
  (* The horizon is inherently sequential (each step's frame depends on
     the previous window), so the engine sees one box per call — but the
     batched engine still amortizes IR extraction across the whole
     unrolling, and the domain dispatch lives in exactly one place. *)
  let propagate_state () =
    let ivs = Array.concat (List.map Array.copy !frames) in
    let box = Box.of_intervals ivs in
    Certify.output_interval ~domain ~actor box
  in
  let cwnd_tcp_iv = ref (Interval.of_point cwnd_tcp) in
  let bounds = ref [] in
  for step = 1 to horizon do
    (* Synthesize the next observation frame under the environment
       model: delay anywhere in the case's region, other features within
       a growing wander band around the anchor. *)
    let slack = env_model.feature_slack *. float_of_int step in
    let fresh =
      Array.init fc (fun j ->
          if j = Observation.delay_index then delay_region
          else
            clamp01 (Interval.make (anchor.(j) -. slack) (anchor.(j) +. slack)))
    in
    frames := List.tl !frames @ [ fresh ];
    let action = propagate_state () in
    let cwnd = cwnd_interval ~cwnd_tcp:!cwnd_tcp_iv action in
    let delta = Interval.add_scalar (-.start_cwnd) cwnd in
    let distance = Interval.overlap_fraction ~target delta in
    bounds :=
      {
        step;
        action;
        cwnd;
        delta_vs_start = delta;
        distance;
        certified = distance >= 1.;
      }
      :: !bounds;
    (* Backbone evolution: Cubic restarts from the enforced window and
       drifts by at most the modelled relative amount per interval. *)
    cwnd_tcp_iv :=
      Interval.make
        (Interval.lo cwnd *. (1. -. env_model.cwnd_tcp_drift))
        (Interval.hi cwnd *. (1. +. env_model.cwnd_tcp_drift))
  done;
  let steps = List.rev !bounds in
  let distances = List.map (fun (b : step_bound) -> b.distance) steps in
  {
    case;
    horizon;
    steps;
    certified = List.for_all (fun (b : step_bound) -> b.certified) steps;
    r_verifier =
      Canopy_util.Mathx.fsum_list distances /. float_of_int horizon;
  }
