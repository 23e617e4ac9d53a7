type slot = { m : float array; v : float array }

(* Adam's constants (Kingma & Ba): every network in the tree trains with
   these, and snapshots do not record them. *)
let beta1 = 0.9
let beta2 = 0.999
let eps = 1e-8

type t = { lr : float; mutable t_step : int; slots : (int, slot) Hashtbl.t }

let adam ~lr () = { lr; t_step = 0; slots = Hashtbl.create 16 }

let slot_for t idx n =
  match Hashtbl.find_opt t.slots idx with
  | Some s ->
      if Array.length s.m <> n then
        invalid_arg "Optimizer.step: parameter shapes changed between calls";
      s
  | None ->
      let s = { m = Array.make n 0.; v = Array.make n 0. } in
      Hashtbl.add t.slots idx s;
      s

let step t params =
  t.t_step <- t.t_step + 1;
  let bc1 = 1. -. (beta1 ** float_of_int t.t_step) in
  let bc2 = 1. -. (beta2 ** float_of_int t.t_step) in
  (* lr·(m/bc1)/(√(v/bc2)+eps) = step·m/(√v+eps′) with the
     bias-correction divisions hoisted out of the loop; same value up to
     rounding, one sqrt and one division per element instead of three
     divisions. *)
  let sb2 = sqrt bc2 in
  let step_size = t.lr *. sb2 /. bc1 in
  let eps' = eps *. sb2 in
  let one_m_b1 = 1. -. beta1 and one_m_b2 = 1. -. beta2 in
  List.iteri
    (fun idx (value, grad) ->
      let n = Array.length value in
      if Array.length grad <> n then invalid_arg "Optimizer.step: grad size";
      let s = slot_for t idx n in
      Canopy_tensor.Elementwise.adam ~beta1 ~one_m_b1 ~beta2 ~one_m_b2
        ~step_size ~eps:eps' ~value ~grad ~m:s.m ~v:s.v)
    params

type snapshot = { step_count : int; moments : (int * float array * float array) list }

let snapshot t =
  let moments =
    Hashtbl.fold (fun idx s acc -> (idx, Array.copy s.m, Array.copy s.v) :: acc) t.slots []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  { step_count = t.t_step; moments }

let restore t snap =
  t.t_step <- snap.step_count;
  Hashtbl.reset t.slots;
  List.iter
    (fun (idx, m, v) ->
      if Array.length m <> Array.length v then
        invalid_arg "Optimizer.restore: moment arrays disagree in length";
      Hashtbl.add t.slots idx { m = Array.copy m; v = Array.copy v })
    snap.moments

let clip_gradients ~norm params =
  if norm <= 0. then invalid_arg "Optimizer.clip_gradients: norm";
  let total =
    List.fold_left
      (fun acc (_, grad) ->
        let s = ref acc in
        for i = 0 to Array.length grad - 1 do
          let g = Array.unsafe_get grad i in
          s := !s +. (g *. g)
        done;
        !s)
      0. params
  in
  let total = sqrt total in
  if total > norm then begin
    let scale = norm /. total in
    List.iter
      (fun (_, grad) ->
        for i = 0 to Array.length grad - 1 do
          Array.unsafe_set grad i (Array.unsafe_get grad i *. scale)
        done)
      params
  end
