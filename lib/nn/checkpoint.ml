open Canopy_tensor

let magic = "canopy-mlp v1"

let write_vec buf v =
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%h" x))
    v;
  Buffer.add_char buf '\n'

let to_string net =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "in_dim %d\n" (Mlp.in_dim net));
  let layers = Mlp.layers net in
  Buffer.add_string buf (Printf.sprintf "layers %d\n" (List.length layers));
  List.iter
    (fun layer ->
      match layer with
      | Layer.Dense d ->
          Buffer.add_string buf
            (Printf.sprintf "dense %d %d\n" (Mat.rows d.w) (Mat.cols d.w));
          write_vec buf (Mat.raw d.w);
          write_vec buf d.b
      | Layer.Batch_norm bn ->
          Buffer.add_string buf
            (Printf.sprintf "batch_norm %d %h %h\n" (Vec.dim bn.gamma)
               bn.momentum bn.eps);
          write_vec buf bn.gamma;
          write_vec buf bn.beta;
          write_vec buf bn.running_mean;
          write_vec buf bn.running_var
      | Layer.Leaky_relu slope ->
          Buffer.add_string buf (Printf.sprintf "leaky_relu %h\n" slope)
      | Layer.Tanh -> Buffer.add_string buf "tanh\n")
    layers;
  Buffer.contents buf

let parse_float s =
  match float_of_string_opt s with
  | Some x -> x
  | None -> failwith (Printf.sprintf "Checkpoint: malformed float %S" s)

let parse_int s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> failwith (Printf.sprintf "Checkpoint: malformed integer %S" s)

let parse_floats line expected =
  let parts =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  if List.length parts <> expected then
    failwith
      (Printf.sprintf "Checkpoint: expected %d floats, found %d" expected
         (List.length parts));
  Array.of_list (List.map parse_float parts)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let lines = ref lines in
  let next () =
    match !lines with
    | [] -> failwith "Checkpoint: unexpected end of file"
    | l :: rest ->
        lines := rest;
        l
  in
  if String.trim (next ()) <> magic then failwith "Checkpoint: bad magic";
  let in_dim =
    match String.split_on_char ' ' (String.trim (next ())) with
    | [ "in_dim"; n ] -> parse_int n
    | _ -> failwith "Checkpoint: expected in_dim"
  in
  let count =
    match String.split_on_char ' ' (String.trim (next ())) with
    | [ "layers"; n ] -> parse_int n
    | _ -> failwith "Checkpoint: expected layers"
  in
  let read_layer () =
    let line = String.trim (next ()) in
    let header =
      String.split_on_char ' ' line |> List.filter (fun x -> x <> "")
    in
    match header with
    | [ "dense"; rows; cols ] ->
        let rows = parse_int rows and cols = parse_int cols in
        (* Sequence the reads explicitly: evaluation order inside record
           and tuple literals is unspecified. *)
        let wdata = parse_floats (next ()) (rows * cols) in
        let b = parse_floats (next ()) rows in
        let w = Mat.init ~rows ~cols (fun i j -> wdata.((i * cols) + j)) in
        Layer.Dense
          { w; b; dw = Mat.create ~rows ~cols; db = Vec.create rows }
    | [ "batch_norm"; dim; momentum; eps ] ->
        let dim = parse_int dim in
        let gamma = parse_floats (next ()) dim in
        let beta = parse_floats (next ()) dim in
        let running_mean = parse_floats (next ()) dim in
        let running_var = parse_floats (next ()) dim in
        Layer.Batch_norm
          {
            gamma;
            beta;
            running_mean;
            running_var;
            dgamma = Vec.create dim;
            dbeta = Vec.create dim;
            momentum = parse_float momentum;
            eps = parse_float eps;
          }
    | [ "leaky_relu"; slope ] -> Layer.Leaky_relu (parse_float slope)
    | [ "tanh" ] -> Layer.Tanh
    | _ -> failwith (Printf.sprintf "Checkpoint: unknown layer header %S" line)
  in
  (* Read sequentially; List.init gives no order guarantee for the
     side-effecting reader. *)
  let layers = ref [] in
  for _ = 1 to count do
    layers := read_layer () :: !layers
  done;
  (* A concatenated, overwritten or mis-counted file must fail loudly:
     after the declared layer count only whitespace may remain. *)
  List.iter
    (fun l ->
      if String.trim l <> "" then
        failwith
          (Printf.sprintf
             "Checkpoint: trailing garbage after declared layer count: %S"
             (String.trim l)))
    !lines;
  Mlp.create ~in_dim (List.rev !layers)

let save net path = Canopy_util.Atomic_file.write path (to_string net)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      of_string s)
