(* Durable file writes: stage the contents in a temporary file created in
   the destination directory, flush it, then rename over the target.
   Readers therefore observe either the old file or the complete new one —
   never a torn intermediate — because rename(2) is atomic within a
   filesystem (the temp file must live next to the target, not in TMPDIR,
   which may be a different mount). *)

(* Distinct staging names across processes and retries: a per-process
   counter plus an Open_excl create, retried under a fresh suffix on
   collision. *)
let stamp = ref 0

let rec create_staging path attempt =
  if attempt > 1000 then
    raise
      (Sys_error
         (Printf.sprintf "Atomic_file.write: cannot create staging file for %s"
            path));
  incr stamp;
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp"
      (Filename.concat (Filename.dirname path)
         ("." ^ Filename.basename path))
      !stamp attempt
  in
  match open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o644 tmp with
  | oc -> (tmp, oc)
  | exception Sys_error _ when Sys.file_exists tmp ->
      create_staging path (attempt + 1)

let write path contents =
  let tmp, oc = create_staging path 0 in
  match
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc contents;
        flush oc);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (* Best-effort cleanup of the staging file; the original target is
         untouched by construction. *)
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let rec mkdir_p dir =
  if dir = "" || dir = Filename.current_dir_name then ()
  else if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (* A concurrent creator may win the race between the existence check
       and the mkdir: EEXIST is success, not failure. *)
    try Sys.mkdir dir 0o755 with
    | Sys_error msg
      when Sys.file_exists dir && Sys.is_directory dir ->
        ignore msg
  end
  else if not (Sys.is_directory dir) then
    invalid_arg
      (Printf.sprintf "Atomic_file.mkdir_p: %s exists and is not a directory"
         dir)
