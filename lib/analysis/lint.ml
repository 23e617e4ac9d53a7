let default_dirs = [ "lib"; "bin" ]

let rules =
  [
    ( "polymorphic-compare",
      "bare `compare` is NaN-unsound on floats and boxes all arguments; use \
       Float.compare / Int.compare or a typed comparator" );
    ( "float-min-max",
      "polymorphic `min`/`max` on floats is NaN-unsound and boxing-heavy; \
       use Float.min / Float.max" );
    ( "int-of-float",
      "`int_of_float` on a NaN or out-of-range value is unspecified; bound \
       the argument first, then baseline the reviewed call site" );
    ("obj-magic", "`Obj.magic` defeats the type system");
    ( "catch-all-exn",
      "catch-all `with _ ->` swallows Out_of_memory, Stack_overflow and \
       programming errors; match specific exceptions" );
    ( "array-make-alias",
      "`Array.make n e` with a mutable `e` (array literal or nested \
       Array.make) stores the SAME value in every slot, so writing one \
       row writes them all; use `Array.init n (fun _ -> ...)`" );
    ( "missing-mli",
      "library module has no .mli; interfaces are required under lib/ so \
       the public surface stays explicit" );
    ( "mlp-layer-walk",
      "direct `Mlp.layers` traversal re-forks the batch-norm folding \
       arithmetic; outside lib/nn only the Anet IR builder may walk the \
       layer list — go through Canopy_absint.Anet instead" );
    ( "non-atomic-write",
      "bare `open_out` replaces the target in place, so a crash mid-write \
       leaves a torn file that a later load trusts; persist through \
       Canopy_util.Atomic_file.write (stage + rename) instead" );
    ( "raw-domain-spawn",
      "bare `Domain.spawn`/`Thread.create` bypasses the deterministic \
       domain pool, so chunking (and with it float results) can depend \
       on scheduling; run parallel work through Canopy_util.Pool \
       instead" );
    ( "bare-min-max",
      "bare `min`/`max` is the polymorphic comparison, a C call per use \
       without flambda; the per-packet layers (lib/netsim, lib/cc, \
       lib/orca) use Int.min/Int.max or Float.min/Float.max" );
  ]

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Columns where [id] occurs as a bare (unqualified, whole-token)
   identifier: not preceded by an identifier char, '.', '~' or '?', and
   not followed by an identifier char. *)
let bare_occurrences line id =
  let n = String.length line and m = String.length id in
  let bad_prefix c = is_ident_char c || c = '.' || c = '~' || c = '?' in
  let rec go acc i =
    if i + m > n then List.rev acc
    else if
      String.sub line i m = id
      && (i = 0 || not (bad_prefix line.[i - 1]))
      && (i + m = n || not (is_ident_char line.[i + m]))
    then go (i :: acc) (i + m)
    else go acc (i + 1)
  in
  go [] 0

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m > 0 && go 0

let skip_spaces line i =
  let n = String.length line in
  let rec go i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then go (i + 1) else i in
  go i

(* Does the text starting at [i] begin with a float literal, modulo an
   opening parenthesis and a sign? Matches e.g. "1.", "0.5", "(-3.)". *)
let starts_with_float_literal line i =
  let n = String.length line in
  let i = skip_spaces line i in
  let i = if i < n && line.[i] = '(' then skip_spaces line (i + 1) else i in
  let i = if i < n && (line.[i] = '-' || line.[i] = '+') then i + 1 else i in
  let j = ref i in
  while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
    incr j
  done;
  !j > i && !j < n && line.[!j] = '.'

let starts_with_int_literal line i =
  let n = String.length line in
  let i = skip_spaces line i in
  let j = ref i in
  while !j < n && ((line.[!j] >= '0' && line.[!j] <= '9') || line.[!j] = '_') do
    incr j
  done;
  !j > i && (!j = n || line.[!j] <> '.')

let ends_with_word line i word =
  (* the non-space text before column [i] ends with the token [word] *)
  let rec back i = if i > 0 && (line.[i - 1] = ' ' || line.[i - 1] = '\t') then back (i - 1) else i in
  let stop = back i in
  let m = String.length word in
  stop >= m
  && String.sub line (stop - m) m = word
  && (stop = m || not (is_ident_char line.[stop - m - 1]))

(* Columns where bare [id] is applied to a visible argument: the next
   token is not a record-field colon, a definition's [=], a separator or
   a closing bracket, and the line does not end there. *)
let applications line id =
  List.filter
    (fun c ->
      let k = skip_spaces line (c + String.length id) in
      k < String.length line
      && not (List.mem line.[k] [ ':'; '='; ';'; ','; ')'; '}' ]))
    (bare_occurrences line id)

(* --- line-scoped rules ------------------------------------------------ *)

let check_polymorphic_compare line =
  if bare_occurrences line "compare" <> [] || contains line "Stdlib.compare"
  then Some (List.assoc "polymorphic-compare" rules)
  else None

let check_float_min_max line =
  let flagged id =
    List.exists
      (fun c ->
        let after = c + String.length id in
        starts_with_float_literal line after
        || (ends_with_word line c "fold_left"
           || ends_with_word line c "fold_right")
           && not (starts_with_int_literal line after))
      (applications line id)
  in
  if flagged "min" || flagged "max" then
    Some (List.assoc "float-min-max" rules)
  else None

let check_int_of_float line =
  if bare_occurrences line "int_of_float" <> [] then
    Some (List.assoc "int-of-float" rules)
  else None

let check_obj_magic line =
  if contains line "Obj.magic" then Some (List.assoc "obj-magic" rules)
  else None

let check_catch_all line =
  let matches_at c =
    let i = skip_spaces line (c + 4) in
    let n = String.length line in
    i < n
    && line.[i] = '_'
    && (i + 1 = n || not (is_ident_char line.[i + 1]))
    &&
    let j = skip_spaces line (i + 1) in
    j + 1 < n && line.[j] = '-' && line.[j + 1] = '>'
  in
  if List.exists matches_at (bare_occurrences line "with") then
    Some (List.assoc "catch-all-exn" rules)
  else None

let check_array_make_alias line =
  let n = String.length line in
  let starts_with i sub =
    let m = String.length sub in
    i + m <= n && String.sub line i m = sub
  in
  (* Skip Array.make's first argument: either a parenthesized expression
     or a simple (possibly qualified) identifier / literal. *)
  let skip_first_arg i =
    let i = skip_spaces line i in
    if i < n && line.[i] = '(' then begin
      let depth = ref 0 and j = ref i and stop = ref (-1) in
      while !stop < 0 && !j < n do
        (match line.[!j] with
        | '(' -> incr depth
        | ')' ->
            decr depth;
            if !depth = 0 then stop := !j + 1
        | _ -> ());
        incr j
      done;
      if !stop < 0 then None else Some !stop
    end
    else begin
      let j = ref i in
      while !j < n && (is_ident_char line.[!j] || line.[!j] = '.') do
        incr j
      done;
      if !j = i then None else Some !j
    end
  in
  let aliasing_at c =
    match skip_first_arg (c + String.length "Array.make") with
    | None -> false
    | Some j ->
        let j = skip_spaces line j in
        let j =
          if j < n && line.[j] = '(' then skip_spaces line (j + 1) else j
        in
        starts_with j "[|" || starts_with j "Array.make"
  in
  if List.exists aliasing_at (bare_occurrences line "Array.make") then
    Some (List.assoc "array-make-alias" rules)
  else None

let check_bare_min_max line =
  if applications line "min" <> [] || applications line "max" <> [] then
    Some (List.assoc "bare-min-max" rules)
  else None

let check_mlp_layer_walk line =
  if contains line "Mlp.layers" then Some (List.assoc "mlp-layer-walk" rules)
  else None

(* [open_out], [open_out_bin] and [open_out_gen] as bare identifiers.
   [bare_occurrences "open_out"] already refuses a following identifier
   char, so the variants need their own probes. *)
let check_non_atomic_write line =
  if
    bare_occurrences line "open_out" <> []
    || bare_occurrences line "open_out_bin" <> []
    || bare_occurrences line "open_out_gen" <> []
  then Some (List.assoc "non-atomic-write" rules)
  else None

let line_rules =
  [
    ("polymorphic-compare", check_polymorphic_compare);
    ("float-min-max", check_float_min_max);
    ("int-of-float", check_int_of_float);
    ("obj-magic", check_obj_magic);
    ("catch-all-exn", check_catch_all);
    ("array-make-alias", check_array_make_alias);
  ]

(* [mlp-layer-walk] is a path-scoped line rule: the layer list is
   the private business of lib/nn, and the single sanctioned external
   consumer is the verifier-IR builder (anet.ml), which owns the one
   restatement of the batch-norm folding arithmetic. *)
let mlp_layer_walk_exempt path =
  let has_prefix p =
    String.length path >= String.length p
    && String.sub path 0 (String.length p) = p
  in
  has_prefix (Filename.concat "lib" "nn" ^ Filename.dir_sep)
  || Filename.basename path = "anet.ml"

(* [non-atomic-write] is likewise path-scoped: the staging implementation
   inside Atomic_file is the one place a bare [open_out_gen] is the
   point, not a hazard. *)
let non_atomic_write_exempt path = Filename.basename path = "atomic_file.ml"

let check_raw_domain_spawn line =
  if contains line "Domain.spawn" || contains line "Thread.create" then
    Some (List.assoc "raw-domain-spawn" rules)
  else None

(* [raw-domain-spawn] funnels all parallelism through the deterministic
   pool; the pool implementation itself is the one sanctioned spawner. *)
let raw_domain_spawn_exempt path = Filename.basename path = "pool.ml"

(* [bare-min-max] covers only the per-packet layers, where a polymorphic
   compare on every ACK or millisecond is a measured cost. It flags any
   argument type: [float-min-max] elsewhere only sees float literals. *)
let per_packet_layer path =
  List.exists
    (fun dir ->
      String.starts_with
        ~prefix:(Filename.concat "lib" dir ^ Filename.dir_sep)
        path)
    [ "netsim"; "cc"; "orca" ]

let line_rules_for path =
  let line_rules =
    if mlp_layer_walk_exempt path then line_rules
    else line_rules @ [ ("mlp-layer-walk", check_mlp_layer_walk) ]
  in
  let line_rules =
    if non_atomic_write_exempt path then line_rules
    else line_rules @ [ ("non-atomic-write", check_non_atomic_write) ]
  in
  let line_rules =
    if raw_domain_spawn_exempt path then line_rules
    else line_rules @ [ ("raw-domain-spawn", check_raw_domain_spawn) ]
  in
  if per_packet_layer path then
    line_rules @ [ ("bare-min-max", check_bare_min_max) ]
  else line_rules

let check_source ~path contents =
  let stripped = Sources.strip contents in
  let original = Array.of_list (String.split_on_char '\n' contents) in
  let line_rules = line_rules_for path in
  let diags = ref [] in
  Array.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      List.iter
        (fun (rule, check) ->
          match check line with
          | Some message when not (Sources.ignored stripped ~line:lineno ~rule)
            ->
              let text =
                if idx < Array.length original then original.(idx) else ""
              in
              diags :=
                Diagnostic.make ~rule ~file:path ~line:lineno ~text message
                :: !diags
          | _ -> ())
        line_rules)
    stripped.lines;
  List.rev !diags

(* --- file-scoped rules ------------------------------------------------ *)

let check_missing_mli ~root ml_files =
  List.filter_map
    (fun rel ->
      if
        String.length rel >= 4
        && String.sub rel 0 4 = "lib" ^ Filename.dir_sep
        && not (Sys.file_exists (Filename.concat root (rel ^ "i")))
      then
        Some
          (Diagnostic.make ~rule:"missing-mli" ~file:rel
             (List.assoc "missing-mli" rules))
      else None)
    ml_files

(* The NaN-unsoundness rules also cover bench/ and test/: a
   NaN-swallowing comparison in a benchmark reducer or a test oracle
   silently accepts garbage, which is exactly where it hurts most. The
   remaining rules stay scoped to lib/ and bin/ (tests legitimately use
   open_out on temp files, catch-all handlers around expected failures,
   and so on). *)
let nan_rules = [ "polymorphic-compare"; "float-min-max" ]
let nan_rule_dirs = [ "bench"; "test" ]

let run ~root () =
  let files = Sources.find_files ~root ~dirs:default_dirs ~ext:".ml" in
  let line_diags =
    List.concat_map
      (fun rel ->
        check_source ~path:rel (Sources.read_file (Filename.concat root rel)))
      files
  in
  let extra_diags =
    List.concat_map
      (fun rel ->
        check_source ~path:rel (Sources.read_file (Filename.concat root rel))
        |> List.filter (fun (d : Diagnostic.t) -> List.mem d.rule nan_rules))
      (Sources.find_files ~root ~dirs:nan_rule_dirs ~ext:".ml")
  in
  List.sort Diagnostic.compare
    (check_missing_mli ~root files @ line_diags @ extra_diags)
