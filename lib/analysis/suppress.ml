type t = (string, unit) Hashtbl.t

type entry = { e_rule : string; e_key : string; e_rest : string }

let entry_key rule hash = rule ^ ":" ^ hash

let load_entries path =
  let entries = ref [] in
  if Sys.file_exists path then begin
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            let line = String.trim (input_line ic) in
            if line <> "" && line.[0] <> '#' then
              match String.index_opt line ' ' with
              | None -> ()
              | Some i -> (
                  let rule = String.sub line 0 i in
                  let rest =
                    String.sub line (i + 1) (String.length line - i - 1)
                  in
                  match String.index_opt rest ' ' with
                  | None ->
                      entries :=
                        { e_rule = rule; e_key = rest; e_rest = "" }
                        :: !entries
                  | Some j ->
                      entries :=
                        {
                          e_rule = rule;
                          e_key = String.sub rest 0 j;
                          e_rest =
                            String.sub rest (j + 1)
                              (String.length rest - j - 1);
                        }
                        :: !entries)
          done
        with End_of_file -> ())
  end;
  List.rev !entries

let of_entries entries : t =
  let table = Hashtbl.create 64 in
  List.iter
    (fun e -> Hashtbl.replace table (entry_key e.e_rule e.e_key) ())
    entries;
  table

let load path : t = of_entries (load_entries path)

let mem (t : t) diag =
  Hashtbl.mem t (entry_key diag.Diagnostic.rule (Diagnostic.key diag))

let filter t diags =
  let fresh, suppressed = List.partition (fun d -> not (mem t d)) diags in
  (fresh, List.length suppressed)

(* Entries owned by [rules] that no current diagnostic matches: drift
   the baseline must not silently accumulate. *)
let stale entries ~rules diags =
  let live = Hashtbl.create 64 in
  List.iter
    (fun (d : Diagnostic.t) ->
      Hashtbl.replace live (entry_key d.Diagnostic.rule (Diagnostic.key d)) ())
    diags;
  List.filter
    (fun e ->
      rules e.e_rule && not (Hashtbl.mem live (entry_key e.e_rule e.e_key)))
    entries

let entry_of_diag (d : Diagnostic.t) =
  {
    e_rule = d.Diagnostic.rule;
    e_key = Diagnostic.key d;
    e_rest = Printf.sprintf "%s:%d %s" d.file d.line d.text;
  }

let header =
  "# canopy lint baseline v1\n\
   # <rule> <key> <file>:<line> <source text>\n\
   # Keys hash (rule, file, line text): entries survive renumbering.\n\
   # Regenerate with: dune exec bin/check.exe -- lint --update-baseline\n\
   #              and dune exec bin/check.exe -- racecheck --update-baseline\n"

let save_entries path entries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s %s\n" e.e_rule e.e_key e.e_rest))
    entries;
  Canopy_util.Atomic_file.write path (Buffer.contents buf)

(* Replace the [rules]-owned section of the baseline with [diags],
   leaving entries owned by other passes untouched — [lint] and
   [racecheck] share one baseline file. *)
let update path ~rules diags =
  let kept = List.filter (fun e -> not (rules e.e_rule)) (load_entries path) in
  let added = List.map entry_of_diag (List.sort Diagnostic.compare diags) in
  let cmp a b =
    let c = String.compare a.e_rule b.e_rule in
    if c <> 0 then c else String.compare a.e_rest b.e_rest
  in
  save_entries path (List.sort cmp (kept @ added))

let save path diags =
  save_entries path
    (List.map entry_of_diag (List.sort Diagnostic.compare diags))
