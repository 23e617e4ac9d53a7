(* Perf-history reporting over the BENCH_*.json records: a hand-rolled
   JSON reader and the writer the bench emitters share (the repo
   deliberately has no JSON dependency), a generic flattener from bench
   records to per-kernel time metrics, a markdown table across history
   snapshots, and the >threshold regression gate against the committed
   baselines. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* ------------------------------------------------------------------ *)
(* Parsing *)

let fail fmt = Printf.ksprintf failwith fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  let n = String.length c.src in
  while
    c.pos < n
    && (match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some got when got = ch -> c.pos <- c.pos + 1
  | Some got -> fail "bench-report json: expected %c, got %c at %d" ch got c.pos
  | None -> fail "bench-report json: expected %c at end of input" ch

let parse_literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "bench-report json: bad literal at %d" c.pos

let parse_string_raw c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "bench-report json: unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> fail "bench-report json: unterminated escape"
        | Some ch ->
            c.pos <- c.pos + 1;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'u' ->
                (* the records are ASCII; keep the escape verbatim *)
                Buffer.add_string buf "\\u"
            | other -> fail "bench-report json: bad escape \\%c" other);
            go ())
    | Some ch ->
        c.pos <- c.pos + 1;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let n = String.length c.src in
  while
    c.pos < n
    &&
    match c.src.[c.pos] with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  do
    c.pos <- c.pos + 1
  done;
  let span = String.sub c.src start (c.pos - start) in
  match float_of_string_opt span with
  | Some f when Float.is_finite f -> Num f
  | _ -> fail "bench-report json: malformed number %S at %d" span start

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "bench-report json: unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let key = parse_string_raw c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((key, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((key, v) :: acc)
          | _ -> fail "bench-report json: expected , or } at %d" c.pos
        in
        Obj (fields [])
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (v :: acc)
          | _ -> fail "bench-report json: expected , or ] at %d" c.pos
        in
        Arr (elems [])
      end
  | Some '"' -> Str (parse_string_raw c)
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some _ -> parse_number c

let json_of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then
    fail "bench-report json: trailing garbage at %d" c.pos;
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Writing: only what the parser above reads back to the same value *)

let invalid fmt =
  Printf.ksprintf invalid_arg ("Bench_report.json_to_string: " ^^ fmt)

(* %.17g always reads back as the same float; the shorter forms keep a
   value such as 313213.3 as it was recorded. *)
let string_of_num f =
  if not (Float.is_finite f) then invalid "non-finite number %h" f;
  let rec go digits =
    let s = Printf.sprintf "%.*g" digits f in
    if digits >= 17 || Float.equal (float_of_string s) f then s
    else go (digits + 1)
  in
  go 15

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | c when Char.code c < 0x20 -> invalid "control byte 0x%02x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let is_container = function Arr _ | Obj _ -> true | _ -> false

(* A container that holds a container puts each item on its own line,
   indented two spaces per level; any other stays on one line. *)
let rec add_value buf indent = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (string_of_num f)
  | Str s -> add_string buf s
  | Arr items ->
      add_items buf indent '[' ']' (List.map (fun v -> (None, v)) items)
  | Obj fields ->
      add_items buf indent '{' '}' (List.map (fun (k, v) -> (Some k, v)) fields)

and add_items buf indent opening closing items =
  let spread = List.exists (fun (_, v) -> is_container v) items in
  let inner = indent ^ "  " in
  Buffer.add_char buf opening;
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_char buf ',';
      if spread then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf inner
      end
      else if i > 0 then Buffer.add_char buf ' ';
      Option.iter
        (fun k ->
          add_string buf k;
          Buffer.add_string buf ": ")
        key;
      add_value buf inner v)
    items;
  if spread then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf indent
  end;
  Buffer.add_char buf closing

let json_to_string v =
  let buf = Buffer.create 4096 in
  add_value buf "" v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Flattening records to per-kernel metrics *)

type entry = {
  bench : string;
  kernel : string;
  metric : string;
  value : float;
  skipped : bool;
}

let time_fields = [ "ns_per_op"; "ns_per_cert"; "ns_per_decision"; "wall_s" ]

(* identifying fields, in key order; (field, prefix in the kernel key).
   A ["name"] field is the kernel key on its own (bench emitters already
   encode batch/domain variants in it); the rest compose one. *)
let id_fields =
  [ ("workload", ""); ("flows", "f"); ("batch", "b"); ("domains", "d");
    ("duration_ms", "ms") ]

let entry_of_element ~bench el =
  let time =
    List.find_map
      (fun f ->
        match member f el with Some (Num v) -> Some (f, v) | _ -> None)
      time_fields
  in
  match time with
  | None -> None
  | Some (metric, value) ->
      let key =
        match member "name" el with
        | Some (Str name) -> name
        | _ -> (
            let parts =
              List.filter_map
                (fun (f, prefix) ->
                  match member f el with
                  | Some (Str s) -> Some (prefix ^ s)
                  | Some (Num v) -> Some (Printf.sprintf "%s%g" prefix v)
                  | _ -> None)
                id_fields
            in
            match parts with [] -> metric | _ -> String.concat "_" parts)
      in
      Some
        {
          bench;
          kernel = bench ^ "/" ^ key;
          metric;
          value;
          skipped = member "skipped_reason" el <> None;
        }

let entries_of_record record =
  match member "mode" record with
  | Some (Str "smoke") -> []
  | _ -> (
      let bench =
        match member "bench" record with Some (Str b) -> b | _ -> "unknown"
      in
      match member "entries" record with
      | Some (Arr els) -> List.filter_map (entry_of_element ~bench) els
      | _ -> [])

(* ------------------------------------------------------------------ *)
(* Loading *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let entries_of_file path = entries_of_record (json_of_string (read_file path))

let load_baselines ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n ->
             String.length n > 6
             && String.sub n 0 6 = "BENCH_"
             && Filename.check_suffix n ".json")
      |> List.sort String.compare
      |> List.concat_map (fun n ->
             let path = Filename.concat dir n in
             match entries_of_file path with
             | entries -> entries
             | exception (Failure msg | Sys_error msg) ->
                 fail "bench-report: malformed baseline %s: %s" path msg)

type snapshot = { stamp : string; entries : entry list }

(* History snapshots are local, and old ones may predate a schema, so a
   bad one is skipped with a warning rather than failing the report. *)
let history_entries path =
  match entries_of_file path with
  | entries -> entries
  | exception (Failure msg | Sys_error msg) ->
      Printf.eprintf "bench-report: skipping %s: %s\n%!" path msg;
      []

(* history filenames are BENCH_<stem>-<stamp>.json *)
let stamp_of_name name =
  let stem = Filename.remove_extension name in
  match String.rindex_opt stem '-' with
  | Some i -> String.sub stem (i + 1) (String.length stem - i - 1)
  | None -> stem

let load_history ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let by_stamp = Hashtbl.create 16 in
      Array.iter
        (fun n ->
          if Filename.check_suffix n ".json" then begin
            let stamp = stamp_of_name n in
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt by_stamp stamp)
            in
            Hashtbl.replace by_stamp stamp
              (prev @ history_entries (Filename.concat dir n))
          end)
        names;
      Hashtbl.fold (fun stamp entries acc -> { stamp; entries } :: acc)
        by_stamp []
      |> List.filter (fun s -> s.entries <> [])
      |> List.sort (fun a b -> String.compare a.stamp b.stamp)

(* ------------------------------------------------------------------ *)
(* Report *)

type regression = {
  r_kernel : string;
  baseline : float;
  latest : float;
  delta_pct : float;
}

type report = {
  markdown : string;
  regressions : regression list;
  tracked : int;
  compared : int;
}

let find_kernel entries kernel =
  List.find_opt (fun e -> e.kernel = kernel) entries

let pp_time metric v =
  if metric = "wall_s" then Printf.sprintf "%.3fs" v
  else Printf.sprintf "%.0fns" v

let build ?(threshold_pct = 15.) ~baselines ~history () =
  let buf = Buffer.create 4096 in
  let benches =
    List.sort_uniq String.compare (List.map (fun e -> e.bench) baselines)
  in
  let compared = ref 0 in
  let regressions = ref [] in
  Buffer.add_string buf "# Bench history\n";
  if history = [] then
    Buffer.add_string buf
      "\n_No local bench history found; table shows committed baselines \
       only._\n";
  List.iter
    (fun bench ->
      let kernels = List.filter (fun e -> e.bench = bench) baselines in
      Printf.bprintf buf "\n## %s\n\n" bench;
      Printf.bprintf buf "| kernel | baseline |%s vs baseline |\n"
        (String.concat ""
           (List.map (fun s -> " " ^ s.stamp ^ " |") history));
      Printf.bprintf buf "|---|---|%s---|\n"
        (String.concat "" (List.map (fun _ -> "---|") history));
      List.iter
        (fun base ->
          let cells =
            List.map
              (fun snap ->
                match find_kernel snap.entries base.kernel with
                | Some e when not e.skipped -> pp_time e.metric e.value
                | Some _ -> "(skipped)"
                | None -> "—")
              history
          in
          let latest =
            List.fold_left
              (fun acc snap ->
                match find_kernel snap.entries base.kernel with
                | Some e when not e.skipped -> Some e
                | _ -> acc)
              None history
          in
          let verdict =
            match latest with
            | _ when base.skipped -> "not gated"
            | None -> "no history"
            | Some e ->
                incr compared;
                let delta_pct =
                  100. *. (e.value -. base.value) /. Float.max 1e-12 base.value
                in
                if delta_pct > threshold_pct then begin
                  regressions :=
                    {
                      r_kernel = base.kernel;
                      baseline = base.value;
                      latest = e.value;
                      delta_pct;
                    }
                    :: !regressions;
                  Printf.sprintf "**%+.1f%% REGRESSION**" delta_pct
                end
                else Printf.sprintf "%+.1f%%" delta_pct
          in
          Printf.bprintf buf "| %s | %s |%s %s |\n" base.kernel
            (pp_time base.metric base.value)
            (String.concat "" (List.map (fun c -> " " ^ c ^ " |") cells))
            verdict)
        kernels)
    benches;
  {
    markdown = Buffer.contents buf;
    regressions = List.rev !regressions;
    tracked = List.length (List.filter (fun e -> not e.skipped) baselines);
    compared = !compared;
  }
