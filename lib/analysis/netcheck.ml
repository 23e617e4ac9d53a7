open Canopy_tensor
open Canopy_nn

let count_nonfinite v =
  Array.fold_left
    (fun acc x -> if Canopy_util.Mathx.is_finite x then acc else acc + 1)
    0 v

let diag ~name ~rule fmt =
  Format.kasprintf (fun message -> Diagnostic.make ~rule ~file:name message) fmt

let check_dense ~name ~idx ~dim (d : Layer.dense) acc =
  let acc =
    if Mat.cols d.w <> dim then
      diag ~name ~rule:"net-dim-mismatch"
        "layer %d (dense %dx%d): expects %d inputs but receives %d" idx
        (Mat.rows d.w) (Mat.cols d.w) (Mat.cols d.w) dim
      :: acc
    else acc
  in
  let bad_w = count_nonfinite (Mat.raw d.w)
  and bad_b = count_nonfinite d.b in
  let acc =
    if bad_w + bad_b > 0 then
      diag ~name ~rule:"net-nonfinite-param"
        "layer %d (dense %dx%d): %d non-finite weight(s), %d non-finite \
         bias(es)"
        idx (Mat.rows d.w) (Mat.cols d.w) bad_w bad_b
      :: acc
    else acc
  in
  (Mat.rows d.w, acc)

let check_batch_norm ~name ~idx ~dim (bn : Layer.batch_norm) acc =
  let acc =
    if Vec.dim bn.gamma <> dim then
      diag ~name ~rule:"net-dim-mismatch"
        "layer %d (batch_norm %d): dimension mismatch with incoming %d" idx
        (Vec.dim bn.gamma) dim
      :: acc
    else acc
  in
  let bad =
    count_nonfinite bn.gamma + count_nonfinite bn.beta
    + count_nonfinite bn.running_mean
    + count_nonfinite bn.running_var
  in
  let acc =
    if bad > 0 then
      diag ~name ~rule:"net-nonfinite-param"
        "layer %d (batch_norm): %d non-finite parameter/statistic value(s)"
        idx bad
      :: acc
    else acc
  in
  let neg_var = Array.exists (fun v -> v < 0.) bn.running_var in
  let all_zero_var = Array.for_all (fun v -> v = 0.) bn.running_var in
  let acc =
    if neg_var then
      diag ~name ~rule:"net-bn-uninitialized"
        "layer %d (batch_norm): negative running variance" idx
      :: acc
    else if Vec.dim bn.running_var > 0 && all_zero_var then
      diag ~name ~rule:"net-bn-uninitialized"
        "layer %d (batch_norm): running variance is identically zero — \
         statistics look uninitialized"
        idx
      :: acc
    else acc
  in
  let acc =
    if bn.eps <= 0. || not (Canopy_util.Mathx.is_finite bn.eps) then
      diag ~name ~rule:"net-bad-hyper" "layer %d (batch_norm): eps = %g" idx
        bn.eps
      :: acc
    else acc
  in
  let acc =
    if bn.momentum < 0. || bn.momentum > 1.
       || not (Canopy_util.Mathx.is_finite bn.momentum)
    then
      diag ~name ~rule:"net-bad-hyper" "layer %d (batch_norm): momentum = %g"
        idx bn.momentum
      :: acc
    else acc
  in
  (dim, acc)

let check_layers ~name ~in_dim layers =
  let acc =
    if in_dim <= 0 then
      [ diag ~name ~rule:"net-dim-mismatch" "input dimension %d <= 0" in_dim ]
    else []
  in
  let _, acc =
    List.fold_left
      (fun (dim, acc) (idx, layer) ->
        match layer with
        | Layer.Dense d -> check_dense ~name ~idx ~dim d acc
        | Layer.Batch_norm bn -> check_batch_norm ~name ~idx ~dim bn acc
        | Layer.Leaky_relu slope ->
            let acc =
              if slope < 0. || slope > 1.
                 || not (Canopy_util.Mathx.is_finite slope)
              then
                diag ~name ~rule:"net-bad-hyper"
                  "layer %d (leaky_relu): slope %g outside [0,1] — the \
                   abstract transformers require it"
                  idx slope
                :: acc
              else acc
            in
            (dim, acc)
        | Layer.Tanh -> (dim, acc))
      (in_dim, acc)
      (List.mapi (fun i l -> (i, l)) layers)
  in
  List.rev acc

let check_mlp ?(name = "<network>") net =
  check_layers ~name ~in_dim:(Mlp.in_dim net) (Mlp.layers net)

let check_checkpoint path =
  match Checkpoint.load path with
  | net -> Ok (check_mlp ~name:path net)
  | exception (Failure msg | Invalid_argument msg) ->
      Error (Printf.sprintf "%s: malformed checkpoint: %s" path msg)
  | exception Sys_error msg -> Error msg

let assert_valid ?(what = "network") net =
  match check_mlp ~name:what net with
  | [] -> ()
  | diags ->
      invalid_arg
        (Format.asprintf "Netcheck: %s failed validation:@\n%a" what
           (Format.pp_print_list Diagnostic.pp)
           diags)
