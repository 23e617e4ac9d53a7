module Atomic_file = Canopy_util.Atomic_file

type record = {
  rec_name : string;
  objective : string;
  score : float;
  search_seed : int;
  scn_seed : int;
  vector : float array;
}

let of_search ~search_seed objective (c : Search.candidate) =
  {
    rec_name =
      Printf.sprintf "adv-%s-%d" (Search.objective_name objective) c.scn_seed;
    objective = Search.objective_name objective;
    score = c.score;
    search_seed;
    scn_seed = c.scn_seed;
    vector = c.vector;
  }

let compiled ~duration_ms r =
  Space.compile ~name:r.rec_name ~duration_ms ~seed:r.scn_seed
    (Space.of_vector r.vector)

let trace ~duration_ms r = (compiled ~duration_ms r).Space.trace

let magic = "canopy-scenario v1"

(* Floats as hex literals so save→load round-trips bit-exactly. *)
let to_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (magic ^ "\n");
  Printf.bprintf buf "name %s\n" r.rec_name;
  Printf.bprintf buf "objective %s\n" r.objective;
  Printf.bprintf buf "score %h\n" r.score;
  Printf.bprintf buf "search_seed %d\n" r.search_seed;
  Printf.bprintf buf "scn_seed %d\n" r.scn_seed;
  Array.iteri
    (fun i d ->
      Printf.bprintf buf "dim %s %h\n" d.Space.dim_name r.vector.(i))
    Space.dims;
  Buffer.contents buf

let save ~dir ~duration_ms r =
  if Array.length r.vector <> Space.n_dims then
    invalid_arg "Corpus.save: vector length";
  Atomic_file.mkdir_p dir;
  let path = Filename.concat dir (r.rec_name ^ ".scn") in
  Atomic_file.write path (to_string r);
  Canopy_trace.Trace.save ~mtu_bytes:1500 (trace ~duration_ms r)
    (Filename.concat dir (r.rec_name ^ ".trace"));
  path

let parse ~path contents =
  let fail fmt =
    Printf.ksprintf (fun m -> failwith (path ^ ": " ^ m)) fmt
  in
  let lines =
    String.split_on_char '\n' contents
    |> List.filter (fun l -> String.trim l <> "")
  in
  (match lines with
  | m :: _ when m = magic -> ()
  | _ -> fail "not a %s file" magic);
  let fields = Hashtbl.create 16 in
  let dims_tbl = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      if i > 0 then
        match String.split_on_char ' ' line with
        | [ "dim"; name; v ] -> Hashtbl.replace dims_tbl name v
        | [ key; v ] -> Hashtbl.replace fields key v
        | _ -> fail "malformed line %S" line)
    lines;
  let field key =
    match Hashtbl.find_opt fields key with
    | Some v -> v
    | None -> fail "missing field %S" key
  in
  let float_field v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> fail "bad float %S" v
  in
  let int_field key =
    match int_of_string_opt (field key) with
    | Some i -> i
    | None -> fail "bad int in %S" key
  in
  (* [float_of_string_opt] accepts "nan" and "inf", which no search
     writes: a NaN would fail only later, in the clamp, and an infinity
     would be silently clamped to a bound. *)
  let vector =
    Array.map
      (fun d ->
        match Hashtbl.find_opt dims_tbl d.Space.dim_name with
        | Some v ->
            let x = float_field v in
            if not (Float.is_finite x) then
              fail "non-finite dim %s %S" d.Space.dim_name v;
            x
        | None -> fail "missing dim %S" d.Space.dim_name)
      Space.dims
  in
  {
    rec_name = field "name";
    objective = field "objective";
    score = float_field (field "score");
    search_seed = int_field "search_seed";
    scn_seed = int_field "scn_seed";
    vector;
  }

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse ~path (really_input_string ic (in_channel_length ic)))

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".scn")
    |> List.sort String.compare
    |> List.map (fun f -> load_file (Filename.concat dir f))

let env_config ~duration_ms r =
  let c = compiled ~duration_ms r in
  let buffer_pkts =
    Canopy_cc.Runner.buffer_of_bdp ~bdp_multiplier:2. ~trace:c.Space.trace
      ~min_rtt_ms:c.Space.c_min_rtt_ms
  in
  {
    (Canopy_orca.Agent_env.default_config ~trace:c.Space.trace
       ~min_rtt_ms:c.Space.c_min_rtt_ms ~buffer_pkts ~duration_ms)
    with
    Canopy_orca.Agent_env.impairments = c.Space.impairments;
  }
