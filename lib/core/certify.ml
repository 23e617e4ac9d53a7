open Canopy_tensor
open Canopy_nn
open Canopy_absint
module Observation = Canopy_orca.Observation
module Fleet_env = Canopy_orca.Fleet_env

type domain = Box_domain | Zonotope_domain
type engine = Batched | Per_slice

type component = {
  case : Property.case;
  index : int;
  slice : Interval.t;
  action : Interval.t;
  output : Interval.t;
  target : Interval.t;
  distance : float;
  certified : bool;
}

type t = {
  property : Property.t;
  components : component array;
  per_case_distance : (Property.case * float) list;
  r_verifier : float;
  fcc : float;
  fcs : bool;
}

let delay_indices ~history =
  List.init history (fun frame ->
      (frame * Observation.feature_count) + Observation.delay_index)

(* Abstract image of the window under Eq. 1 for an abstract action: the
   map a ↦ clamp(2^{2a}·CWND_TCP) is monotone non-decreasing in a. *)
let cwnd_interval ~cwnd_tcp action =
  Interval.monotone
    (fun a -> Fleet_env.cwnd_of_action ~action:a ~cwnd_tcp)
    action

(* The single domain/engine dispatch of the certification stack: certify
   and certify_adaptive both obtain abstract action bounds here, so a new
   domain (or engine) is added in exactly one place. *)
let output_intervals ?(engine = Batched) ~domain ~actor boxes =
  match engine with
  | Per_slice ->
      (* The pre-IR reference: one layer-by-layer propagation per box. *)
      Array.map
        (fun box ->
          match domain with
          | Box_domain -> Ibp.output_interval actor box
          | Zonotope_domain -> Zonotope.output_interval actor box)
        boxes
  | Batched ->
      let ir = Anet.cached actor in
      (match domain with
      | Box_domain -> Anet.output_intervals ir boxes
      | Zonotope_domain -> Zonotope.output_intervals_anet ir boxes)

let target_of_case property case =
  match (property, case) with
  | _, Property.Large_delay -> Interval.make Float.neg_infinity 0.
  | _, Property.Small_delay -> Interval.make 0. Float.infinity
  | Property.Robustness { epsilon; _ }, Property.Noise ->
      Interval.make (-.epsilon) epsilon
  | Property.Performance _, Property.Noise ->
      invalid_arg "Certify.target_of_case"

(* Model-independent part of a step-certificate context: everything the
   component rows and the CWND postcondition check need.  The
   model-specific part (MLP + abstract engine, or distilled tree) only
   supplies abstract action intervals per component. *)
type step_ctx = {
  property : Property.t;
  delay_indices : int list;
  state : float array;
  cwnd_tcp : float;
  prev_cwnd : float;
  cwnd_concrete : float Lazy.t;  (* [unperturbed_window] *)
}

(* The full evaluation context of an MLP step certificate. *)
type ctx = { engine : engine; domain : domain; actor : Mlp.t; step : step_ctx }

(* The one component-row builder. Row [k] of the [K × in_dim] center and
   radius matrices is job [k]'s abstract input: the concrete state as a
   point (radius +0), with each delay dimension replaced by the slice
   (performance) or its multiplicative image (robustness). *)
let component_rows step jobs =
  let rows = Array.length jobs and cols = Array.length step.state in
  let centers = Mat.create_uninit ~rows ~cols
  and radii = Mat.create_uninit ~rows ~cols in
  let cd = Mat.raw centers and rd = Mat.raw radii in
  Array.iteri
    (fun k (case, _, slice) ->
      let base = k * cols in
      Array.blit step.state 0 cd base cols;
      Array.fill rd base cols 0.;
      List.iter
        (fun idx ->
          let iv =
            match case with
            | Property.Large_delay | Property.Small_delay -> slice
            | Property.Noise -> Interval.scale step.state.(idx) slice
          in
          cd.(base + idx) <- Interval.midpoint iv;
          rd.(base + idx) <- Interval.radius iv)
        step.delay_indices)
    jobs;
  (centers, radii)

(* Finish a component from its abstract action: push through the CWND map
   of Eq. 1 and compare against the postcondition (Eq. 7). *)
let finish_component step case index slice action =
  let target = target_of_case step.property case in
  let cwnd = cwnd_interval ~cwnd_tcp:step.cwnd_tcp action in
  let output =
    match case with
    | Property.Large_delay | Property.Small_delay ->
        Interval.add_scalar (-.step.prev_cwnd) cwnd
    | Property.Noise ->
        let w0 = Lazy.force step.cwnd_concrete in
        Interval.div_scalar (Interval.add_scalar (-.w0) cwnd) w0
  in
  let distance = Interval.overlap_fraction ~target output in
  {
    case;
    index;
    slice;
    action;
    output;
    target;
    distance;
    certified = distance >= 1.;
  }

(* Evaluate a workload of (case, index, slice) jobs in one engine call:
   with the batched engine, every slice of every case goes through the
   network together, straight from the component rows. The other engines
   take [Box.make] views of the same rows. *)
let components_of_jobs ctx jobs =
  let centers, radii = component_rows ctx.step jobs in
  let actions =
    match (ctx.engine, ctx.domain) with
    | Batched, Box_domain ->
        Anet.output_intervals_rows (Anet.cached ctx.actor) ~centers ~radii
    | _ ->
        output_intervals ~engine:ctx.engine ~domain:ctx.domain ~actor:ctx.actor
          (Array.init (Array.length jobs) (fun k ->
               Box.make ~center:(Mat.row centers k) ~dev:(Mat.row radii k)))
  in
  Array.mapi
    (fun k (case, index, slice) ->
      finish_component ctx.step case index slice actions.(k))
    jobs

let clamp_action = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

(* The window of the unperturbed decision, given the model's raw output
   on the concrete state. Only the robustness case reads it, so the
   model runs on first use. *)
let unperturbed_window ~cwnd_tcp raw_action =
  lazy
    (Fleet_env.cwnd_of_action ~action:(clamp_action (raw_action ())) ~cwnd_tcp)

let make_step_ctx ~property ~history ~state ~cwnd_tcp ~prev_cwnd ~raw_action
    =
  {
    property;
    delay_indices = delay_indices ~history;
    state;
    cwnd_tcp;
    prev_cwnd;
    cwnd_concrete = unperturbed_window ~cwnd_tcp raw_action;
  }

let make_ctx ~engine ~domain ~actor ~property ~history ~state ~cwnd_tcp
    ~prev_cwnd =
  {
    engine;
    domain;
    actor;
    step =
      make_step_ctx ~property ~history ~state ~cwnd_tcp ~prev_cwnd
        ~raw_action:(fun () -> (Mlp.forward actor state).(0));
  }

let validate ~what ~n_components ~history ~state ~cwnd_tcp ~prev_cwnd ~in_dim
    =
  if n_components <= 0 then invalid_arg (what ^ ": n_components");
  if history <= 0 then invalid_arg (what ^ ": history");
  if Array.length state <> history * Observation.feature_count then
    invalid_arg (what ^ ": state dimension");
  if in_dim <> Array.length state then
    invalid_arg (what ^ ": model input dimension");
  if
    not
      (Array.for_all Float.is_finite state
      && Float.is_finite cwnd_tcp && Float.is_finite prev_cwnd)
  then invalid_arg (what ^ ": non-finite state")

let summarize property components =
  let per_case_distance =
    List.map
      (fun case ->
        let ds =
          Array.to_list components
          |> List.filter_map (fun c ->
                 if c.case = case then Some c.distance else None)
        in
        let mean =
          Canopy_util.Mathx.fsum_list ds /. float_of_int (List.length ds)
        in
        (case, mean))
      (Property.cases property)
  in
  (* Eq. 8: average the per-case distances. *)
  let r_verifier =
    let ds = List.map snd per_case_distance in
    Canopy_util.Mathx.fsum_list ds /. float_of_int (List.length ds)
  in
  let certified_count =
    Array.fold_left (fun n c -> if c.certified then n + 1 else n) 0 components
  in
  {
    property;
    components;
    per_case_distance;
    r_verifier;
    fcc =
      float_of_int certified_count /. float_of_int (Array.length components);
    fcs = certified_count = Array.length components;
  }

let jobs_of_property property n_components =
  Array.of_list
    (List.concat_map
       (fun case ->
         let precondition = Property.precondition_delay property case in
         List.mapi
           (fun index slice -> (case, index, slice))
           (Interval.split precondition n_components))
       (Property.cases property))

let certify ?(engine = Batched) ?(domain = Box_domain) ~actor ~property
    ~n_components ~history ~state ~cwnd_tcp ~prev_cwnd () =
  validate ~what:"Certify.certify" ~n_components ~history ~state ~cwnd_tcp
    ~prev_cwnd ~in_dim:(Mlp.in_dim actor);
  let ctx =
    make_ctx ~engine ~domain ~actor ~property ~history ~state ~cwnd_tcp
      ~prev_cwnd
  in
  summarize property
    (components_of_jobs ctx (jobs_of_property property n_components))

(* Certification of the distilled piecewise-affine tree.  No abstract
   engine is involved: every leaf region is an axis-aligned box and its
   model one affine stage, so intersecting the component's input box with
   each leaf cell and bounding the affine model per term gives the exact
   hull of reachable outputs ([Tree.output_interval ~exact:true]) — the
   verifier distance is exact, not conservative.  [~conservative:true]
   instead bounds every leaf over the whole input box (what a
   structure-blind interval engine would compute), for side-by-side
   comparison; the exact action interval is always a subset of the
   conservative one, so exact certified rates dominate.  The abstract
   action is clamped to [-1, 1] exactly as the serving path clamps the
   concrete prediction.  Each component's box is read off its row as
   [c − e, c + e] into two arrays reused across the components. *)
let certify_tree ?(conservative = false) ~tree ~property ~n_components ~history
    ~state ~cwnd_tcp ~prev_cwnd () =
  validate ~what:"Certify.certify_tree" ~n_components ~history ~state
    ~cwnd_tcp ~prev_cwnd
    ~in_dim:(Canopy_distill.Tree.in_dim tree);
  let step =
    make_step_ctx ~property ~history ~state ~cwnd_tcp ~prev_cwnd
      ~raw_action:(fun () -> Canopy_distill.Tree.predict tree state)
  in
  let jobs = jobs_of_property property n_components in
  let centers, radii = component_rows step jobs in
  let d = Array.length state in
  let cd = Mat.raw centers and rd = Mat.raw radii in
  let lo = Array.make d 0. and hi = Array.make d 0. in
  summarize property
    (Array.mapi
       (fun k (case, index, slice) ->
         for j = 0 to d - 1 do
           let c = cd.((k * d) + j) and e = rd.((k * d) + j) in
           lo.(j) <- c -. e;
           hi.(j) <- c +. e
         done;
         let raw =
           Canopy_distill.Tree.output_interval ~exact:(not conservative) tree
             ~lo ~hi
         in
         finish_component step case index slice
           (Interval.monotone clamp_action raw))
       jobs)

(* Adaptive subdivision (Section 8, future work (ii)): start from a
   coarse split and keep bisecting only the undecided components — the
   ones whose distance is strictly between 0 and 1 and may therefore be
   suffering from over-approximation. Components proved (D = 1) or
   concretely refuted on their midpoint are left alone.

   Refinement proceeds in rounds so each round's open slices — across
   every case — are evaluated in one engine call. Slots keep their
   position (a split replaces its slot with the two ordered halves), so
   the final components come out in slice order per case, exactly as the
   depth-first reference did. *)
type slot = Final of component | Open of Property.case * Interval.t

let reindex components =
  let counters = ref [] in
  List.map
    (fun c ->
      let n = try List.assoc c.case !counters with Not_found -> 0 in
      counters := (c.case, n + 1) :: List.remove_assoc c.case !counters;
      { c with index = n })
    components

let certify_adaptive ?(engine = Batched) ?(domain = Box_domain)
    ?(initial_components = 2) ~actor ~property ~max_components ~history
    ~state ~cwnd_tcp ~prev_cwnd () =
  validate ~what:"Certify.certify_adaptive" ~n_components:initial_components
    ~history ~state ~cwnd_tcp ~prev_cwnd ~in_dim:(Mlp.in_dim actor);
  if max_components < initial_components then
    invalid_arg "Certify.certify_adaptive: max_components";
  let ctx =
    make_ctx ~engine ~domain ~actor ~property ~history ~state ~cwnd_tcp
      ~prev_cwnd
  in
  let budgets =
    List.map (fun case -> (case, ref max_components)) (Property.cases property)
  in
  let undecided c = c.distance > 0. && c.distance < 1. in
  let rec refine slots =
    let jobs =
      List.filter_map
        (function Open (case, slice) -> Some (case, 0, slice) | Final _ -> None)
        slots
    in
    if jobs = [] then
      List.map (function Final c -> c | Open _ -> assert false) slots
    else begin
      let fresh =
        ref (Array.to_list (components_of_jobs ctx (Array.of_list jobs)))
      in
      let next =
        List.concat_map
          (function
            | Final c -> [ Final c ]
            | Open (case, slice) ->
                let c =
                  match !fresh with
                  | c :: tl ->
                      fresh := tl;
                      c
                  | [] -> assert false
                in
                let budget = List.assoc case budgets in
                if undecided c && !budget > 0 && Interval.width slice > 1e-4
                then begin
                  decr budget;
                  List.map
                    (fun half -> Open (case, half))
                    (Interval.split slice 2)
                end
                else [ Final c ])
          slots
      in
      refine next
    end
  in
  let slots =
    List.concat_map
      (fun case ->
        let precondition = Property.precondition_delay property case in
        List.map
          (fun slice -> Open (case, slice))
          (Interval.split precondition initial_components))
      (Property.cases property)
  in
  summarize property (Array.of_list (reindex (refine slots)))

let pp_component ppf c =
  Format.fprintf ppf "%s[%d]: a=%a out=%a Y=%a D=%.3f%s"
    (Property.case_name c.case) c.index Interval.pp c.action Interval.pp
    c.output Interval.pp c.target c.distance
    (if c.certified then " ✓" else "")

let pp ppf (t : t) =
  Format.fprintf ppf "@[<v>%a: r_verifier=%.3f fcc=%.3f fcs=%b@,%a@]"
    Property.pp t.property t.r_verifier t.fcc t.fcs
    (Format.pp_print_array ~pp_sep:Format.pp_print_cut pp_component)
    t.components

type refutation =
  | Violation of { state : float array; output : float }
  | Unknown

let case_ordinal = function
  | Property.Large_delay -> 0
  | Property.Small_delay -> 1
  | Property.Noise -> 2

let refute ?(samples = 64) ~rng ~actor ~history ~state ~cwnd_tcp ~prev_cwnd
    component =
  if component.certified then Unknown
  else begin
    (* Derive a per-component stream via [Prng.split]: one draw advances
       the caller's sequence, and the component's identity keys the child
       index, so two components refuted from the same caller state still
       replay distinct, reproducible sample sequences. *)
    let rng =
      Canopy_util.Prng.split rng
        ((3 * component.index) + case_ordinal component.case)
    in
    let indices = delay_indices ~history in
    (* one unperturbed forward pass per call, not one per sample *)
    let w0 =
      unperturbed_window ~cwnd_tcp (fun () -> (Mlp.forward actor state).(0))
    in
    let concrete_output candidate_state =
      let a = clamp_action (Mlp.forward actor candidate_state).(0) in
      let w = Fleet_env.cwnd_of_action ~action:a ~cwnd_tcp in
      match component.case with
      | Property.Large_delay | Property.Small_delay -> w -. prev_cwnd
      | Property.Noise ->
          let w0 = Lazy.force w0 in
          (w -. w0) /. w0
    in
    let candidate_of value =
      let s = Array.copy state in
      List.iter
        (fun idx ->
          s.(idx) <-
            (match component.case with
            | Property.Large_delay | Property.Small_delay -> value
            | Property.Noise -> state.(idx) *. value))
        indices;
      s
    in
    (* Endpoints first (monotone policies violate at an extreme), then
       uniform samples. Track the worst witness found. *)
    let witness = ref Unknown in
    let consider value =
      let s = candidate_of value in
      let out = concrete_output s in
      if not (Interval.contains component.target out) then begin
        match !witness with
        | Violation { output; _ } ->
            (* keep the more extreme violation *)
            let dist iv x =
              Float.max (Interval.lo iv -. x) (x -. Interval.hi iv)
            in
            if dist component.target out > dist component.target output then
              witness := Violation { state = s; output = out }
        | Unknown -> witness := Violation { state = s; output = out }
      end
    in
    consider (Interval.lo component.slice);
    consider (Interval.hi component.slice);
    consider (Interval.midpoint component.slice);
    for _ = 4 to samples do
      consider (Interval.sample rng component.slice)
    done;
    !witness
  end
