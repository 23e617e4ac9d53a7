(** Crash-safe persistence primitives.

    Every file the system writes and later trusts (actor checkpoints,
    training snapshots, curves, baselines, traces) must go through
    {!write}: a bare [open_out] replaces the target in place, so a crash
    mid-write leaves a truncated file that a later load happily parses.
    The [non-atomic-write] lint rule keeps new persistence sites on this
    path. *)

val write : string -> string -> unit
(** [write path contents] stages [contents] in a fresh temporary file in
    [Filename.dirname path], flushes it, and renames it over [path].
    Readers see the old contents or the new contents, never a prefix.
    A newly created file gets mode [0o644]. Raises
    [Sys_error] on I/O failure; the original [path] is left intact and
    the staging file is removed best-effort. *)

val mkdir_p : string -> unit
(** Recursive [mkdir -p] (mode [0o755]): creates missing ancestors, tolerates
    directories that already exist (including ones that appear
    concurrently between check and create — EEXIST is success). Raises
    [Invalid_argument] if a non-directory occupies the path. *)
