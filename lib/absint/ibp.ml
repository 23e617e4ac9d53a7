open Canopy_tensor
open Canopy_nn

let propagate_layer layer box =
  match layer with
  | Layer.Dense d -> Box.affine d.w d.b box
  | Layer.Batch_norm bn ->
      (* Inference-mode batch norm is x ↦ γ·(x−μ)/σ + β, an elementwise
         affine map with constant coefficients. *)
      let n = Vec.dim bn.gamma in
      let scale =
        Vec.init n (fun i -> bn.gamma.(i) /. sqrt (bn.running_var.(i) +. bn.eps))
      in
      let shift =
        Vec.init n (fun i -> bn.beta.(i) -. (scale.(i) *. bn.running_mean.(i)))
      in
      Box.diag_affine ~scale ~shift box
  | Layer.Leaky_relu slope ->
      Box.map_monotone (fun x -> if x >= 0. then x else slope *. x) box
  | Layer.Tanh -> Box.map_monotone Float.tanh box

let propagate net box =
  if Box.dim box <> Mlp.in_dim net then invalid_arg "Ibp.propagate: input dim";
  List.fold_left (fun acc layer -> propagate_layer layer acc) box
    (Mlp.layers net)

let output_interval net box =
  if Mlp.out_dim net <> 1 then invalid_arg "Ibp.output_interval: out_dim";
  Box.dimension (propagate net box) 0
