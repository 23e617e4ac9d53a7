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

let case_ordinal = function
  | Property.Large_delay -> 0
  | Property.Small_delay -> 1
  | Property.Noise -> 2

(* The postcondition of each of the property's cases, indexed by
   [case_ordinal] and built once per certificate; the cell of a case the
   property lacks holds a point no component reads. *)
let targets_of property =
  let targets = Array.make 3 (Interval.of_point 0.) in
  List.iter
    (fun case -> targets.(case_ordinal case) <- target_of_case property case)
    (Property.cases property);
  targets

(* Model-independent part of a step-certificate context: everything the
   component rows and the CWND postcondition check need.  The
   model-specific part (MLP + abstract engine, or distilled tree) only
   supplies abstract action intervals per component. *)
type step_ctx = {
  property : Property.t;
  targets : Interval.t array;  (* [targets_of property] *)
  delay_indices : int array;
  state : float array;
  cwnd_tcp : float;
  prev_cwnd : float;
  cwnd_concrete : float Lazy.t;  (* [unperturbed_window] *)
}

(* The full evaluation context of an MLP step certificate. *)
type ctx = { engine : engine; domain : domain; actor : Mlp.t; step : step_ctx }

(* Per-domain scratch arena of certificate assembly (DESIGN §8): slots 0
   and 1 hold a step's [K × history] component centers and radii over the
   delay columns, slots 2 and 3 a tree certificate's K action bounds. The
   arena is DLS-owned, so only its domain writes them; every certificate
   overwrites each cell before reading it, and nothing a certificate
   returns aliases them, so they are dead once the call returns (an
   engine's pool workers only read them, inside the call). *)
let rows_key : Canopy_util.Scratch.t Domain.DLS.key =
  Domain.DLS.new_key Canopy_util.Scratch.create

(* The one component-set builder. Job [k]'s abstract input is the
   concrete state as a point (radius +0), with each delay column replaced
   by the slice (performance) or its multiplicative image (robustness):
   the factored set of the engines ([Box.set]), whose [K × history]
   centers and radii live in this domain's [rows_key] arena. *)
let component_set step jobs : Box.set =
  let rows = Array.length jobs and vary = step.delay_indices in
  let n = Array.length vary in
  let arena = Domain.DLS.get rows_key in
  let centers = Canopy_util.Scratch.get arena ~slot:0 ~len:(rows * n)
  and radii = Canopy_util.Scratch.get arena ~slot:1 ~len:(rows * n) in
  for k = 0 to rows - 1 do
    let case, _, slice = jobs.(k) in
    for m = 0 to n - 1 do
      let iv =
        match case with
        | Property.Large_delay | Property.Small_delay -> slice
        | Property.Noise -> Interval.scale step.state.(vary.(m)) slice
      in
      centers.((k * n) + m) <- Interval.midpoint iv;
      radii.((k * n) + m) <- Interval.radius iv
    done
  done;
  { rows; point = step.state; vary; centers; radii }

(* Finish a component from its abstract action: push through the CWND map
   of Eq. 1, which is monotone in the action, and compare against the
   postcondition (Eq. 7). *)
let finish_component step case index slice action =
  let target = step.targets.(case_ordinal case) in
  let cwnd_tcp = step.cwnd_tcp in
  let cwnd =
    Interval.make
      (Fleet_env.cwnd_of_action ~action:(Interval.lo action) ~cwnd_tcp)
      (Fleet_env.cwnd_of_action ~action:(Interval.hi action) ~cwnd_tcp)
  in
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
   network together, straight from the component set. The other engines
   take [Box.of_set] views of the same set. *)
let components_of_jobs ctx jobs =
  let set = component_set ctx.step jobs in
  let actions =
    match (ctx.engine, ctx.domain) with
    | Batched, Box_domain ->
        Anet.output_intervals_rows (Anet.cached ctx.actor) set
    | _ ->
        output_intervals ~engine:ctx.engine ~domain:ctx.domain ~actor:ctx.actor
          (Array.init set.rows (Box.of_set set))
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
    targets = targets_of property;
    delay_indices = Array.of_list (delay_indices ~history);
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

(* One pass over the components: per case, the distances summed in
   component order from +0 (the bits of a fold over that case's list),
   and the certified count. *)
let summarize property components =
  let sums = [| 0.; 0.; 0. |] and counts = [| 0; 0; 0 |] in
  let certified_count = ref 0 in
  for k = 0 to Array.length components - 1 do
    let c = components.(k) in
    let o = case_ordinal c.case in
    sums.(o) <- sums.(o) +. c.distance;
    counts.(o) <- counts.(o) + 1;
    if c.certified then incr certified_count
  done;
  let per_case_distance =
    List.map
      (fun case ->
        let o = case_ordinal case in
        (case, sums.(o) /. float_of_int counts.(o)))
      (Property.cases property)
  in
  (* Eq. 8: average the per-case distances. *)
  let r_verifier =
    let ds = List.map snd per_case_distance in
    Canopy_util.Mathx.fsum_list ds /. float_of_int (List.length ds)
  in
  let certified_count = !certified_count in
  {
    property;
    components;
    per_case_distance;
    r_verifier;
    fcc =
      float_of_int certified_count /. float_of_int (Array.length components);
    fcs = certified_count = Array.length components;
  }

(* Job [k] is slice [k mod n] of case [k / n], the cases in
   [Property.cases] order. *)
let jobs_of_property property n_components =
  let cases = Array.of_list (Property.cases property) in
  let preconditions = Array.map (Property.precondition_delay property) cases in
  Array.init (Array.length cases * n_components) (fun k ->
      let c = k / n_components and index = k mod n_components in
      ( cases.(c),
        index,
        Interval.slice preconditions.(c) ~n:n_components index ))

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
   hull of reachable outputs ([Tree.output_intervals ~exact:true]) — the
   verifier distance is exact, not conservative.  [~conservative:true]
   instead bounds every leaf over the whole input box (what a
   structure-blind interval engine would compute), for side-by-side
   comparison; the exact action interval is always a subset of the
   conservative one, so exact certified rates dominate.  The abstract
   action is clamped to [-1, 1] exactly as the serving path clamps the
   concrete prediction.  The tree reads each component's box off the
   component set as [c − e, c + e] over the delay columns and
   [s − 0, s + 0] elsewhere, and all of them go down the tree in one
   descent. *)
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
  let rows = Array.length jobs in
  let arena = Domain.DLS.get rows_key in
  let out_lo = Canopy_util.Scratch.get arena ~slot:2 ~len:rows
  and out_hi = Canopy_util.Scratch.get arena ~slot:3 ~len:rows in
  Canopy_distill.Tree.output_intervals ~exact:(not conservative) tree
    (component_set step jobs) ~out_lo ~out_hi;
  summarize property
    (Array.mapi
       (fun k (case, index, slice) ->
         let action =
           Interval.make (clamp_action out_lo.(k)) (clamp_action out_hi.(k))
         in
         finish_component step case index slice action)
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

(* Delay values one refutation evaluates: the slice's two endpoints, its
   midpoint and uniform draws. *)
let refute_samples = 64

let refute ~rng ~actor ~history ~state ~cwnd_tcp ~prev_cwnd component =
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
    for _ = 4 to refute_samples do
      consider (Interval.sample rng component.slice)
    done;
    !witness
  end
