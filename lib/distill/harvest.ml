module Mat = Canopy_tensor.Mat
module Mlp = Canopy_nn.Mlp
module Fleet_env = Canopy_orca.Fleet_env

let clamp_action = Canopy_util.Mathx.clamp ~lo:(-1.) ~hi:1.

let collect_group ~actor cfgs =
  let env = Fleet_env.create cfgs in
  let flows = Fleet_env.flows env and sd = Fleet_env.state_dim env in
  if Mlp.in_dim actor <> sd then
    invalid_arg "Harvest.collect: actor input dim does not match state dim";
  if Mlp.out_dim actor <> 1 then
    invalid_arg "Harvest.collect: actor must have a scalar head";
  let x = Mat.create ~rows:flows ~cols:sd in
  let y = Mat.create ~rows:flows ~cols:1 in
  let actions = Array.make flows 0. in
  let states_rev = ref [] and acts_rev = ref [] in
  let ticks = ref 0 in
  while not (Fleet_env.finished env) do
    Fleet_env.write_states env ~dst:x;
    Mlp.forward_eval_into ~dst:y actor x;
    let raw_y = Mat.raw y in
    for i = 0 to flows - 1 do
      (* the serving path clamps before acting, so the clamped action is
         the distillation target *)
      actions.(i) <- clamp_action raw_y.(i)
    done;
    states_rev := Array.copy (Mat.raw x) :: !states_rev;
    acts_rev := Array.copy actions :: !acts_rev;
    ignore (Fleet_env.step env ~actions : Fleet_env.step_result);
    incr ticks
  done;
  let total = flows * !ticks in
  let xs = Mat.create ~rows:total ~cols:sd in
  let ys = Array.make (max total 1) 0. in
  let raw_xs = Mat.raw xs in
  let row = ref (!ticks - 1) in
  List.iter
    (fun states ->
      Array.blit states 0 raw_xs (!row * flows * sd) (flows * sd);
      decr row)
    !states_rev;
  let row = ref (!ticks - 1) in
  List.iter
    (fun acts ->
      Array.blit acts 0 ys (!row * flows) flows;
      decr row)
    !acts_rev;
  (xs, if total = 0 then [||] else ys)

let collect ~actor cfgs =
  if Array.length cfgs = 0 then invalid_arg "Harvest.collect: no episodes";
  (* [Fleet_env] requires one decision interval per fleet; a mixed pool
     (the trainer's stratified links derive theirs from min-RTT) becomes
     one fleet per interval, groups in first-appearance order. *)
  let by_interval = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun cfg ->
      let k = Fleet_env.interval_of cfg in
      match Hashtbl.find_opt by_interval k with
      | Some group -> group := cfg :: !group
      | None ->
          Hashtbl.add by_interval k (ref [ cfg ]);
          order := k :: !order)
    cfgs;
  let groups =
    List.rev_map
      (fun k -> Array.of_list (List.rev !(Hashtbl.find by_interval k)))
      !order
  in
  match groups with
  | [ cfgs ] -> collect_group ~actor cfgs
  | groups ->
      let parts = List.map (collect_group ~actor) groups in
      let sd = Mat.cols (fst (List.hd parts)) in
      let total = List.fold_left (fun n (xs, _) -> n + Mat.rows xs) 0 parts in
      let xs = Mat.create ~rows:total ~cols:sd in
      let raw_xs = Mat.raw xs in
      let off = ref 0 in
      List.iter
        (fun (part, _) ->
          let len = Mat.rows part * sd in
          Array.blit (Mat.raw part) 0 raw_xs !off len;
          off := !off + len)
        parts;
      (xs, Array.concat (List.map snd parts))
