(** Perf-history reporting and regression gating over the BENCH_*.json
    records.

    Full bench runs write machine-readable records at the repo root
    (committed: the recorded baselines) and archive a timestamped copy
    under [_artifacts/bench_history/].  The bench emitters write them
    with {!json_to_string}; this module parses both (with a
    dependency-free JSON reader), flattens every record's [entries] into
    per-kernel time metrics, renders a markdown speedup/regression table
    across commits, and gates: a tracked kernel whose latest full-run
    measurement is more than [threshold_pct] slower than its committed
    baseline is a regression. *)

(** Minimal JSON value — just enough for the BENCH_* records. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val json_of_string : string -> json
(** Strict parser: raises [Failure] on malformed input or trailing
    garbage. *)

val json_to_string : json -> string
(** The one writer of BENCH records: [json_of_string (json_to_string v)
    = v].  Each number is printed in the shortest form that reads back
    as the same float; strings use only the escapes the parser decodes
    (a backslash before a quote, a backslash, [n], [t], [r] or [b]).  A
    container that holds a container puts each item on its own indented
    line; any other stays on one line.  Raises [Invalid_argument] on
    NaN, an infinity, or any other control byte in a string. *)

type entry = {
  bench : string;  (** top-level ["bench"] tag of the record *)
  kernel : string;  (** derived key, e.g. [train_step/actor_forward_b64] *)
  metric : string;  (** which time field, e.g. [ns_per_op] *)
  value : float;  (** the time measurement — smaller is better *)
  skipped : bool;  (** entry carried a [skipped_reason]: not a claim *)
}

val entries_of_record : json -> entry list
(** Flatten one BENCH_* record.  Each element of its ["entries"] array
    contributes one entry keyed by the record's bench tag plus the
    element's identifying fields ([name]/[workload]/[batch]/[flows]/
    [domains]); the value is the first time-like field present
    ([ns_per_op], [ns_per_cert], [ns_per_decision], [wall_s]).  Records
    with ["mode": "smoke"] and elements without a time field yield
    nothing. *)

type snapshot = { stamp : string; entries : entry list }

val load_baselines : dir:string -> entry list
(** Parse every committed [BENCH_*.json] directly under [dir].  Raises
    [Failure] naming the file when one is unreadable or malformed: a torn
    baseline must not silently drop its kernels from the gate. *)

val load_history : dir:string -> snapshot list
(** Parse every [*.json] under the bench-history directory (filenames
    [BENCH_<stem>-<stamp>.json]), grouped per timestamp and sorted
    chronologically.  A missing directory yields [].  Snapshots are local
    and may predate a schema, so an unreadable or malformed one is
    skipped with a warning on stderr. *)

type regression = {
  r_kernel : string;
  baseline : float;
  latest : float;
  delta_pct : float;  (** positive = slower than baseline *)
}

type report = {
  markdown : string;  (** per-bench tables: kernels x snapshots + baseline *)
  regressions : regression list;  (** kernels beyond the threshold *)
  tracked : int;  (** baseline kernels considered *)
  compared : int;  (** kernels with both a baseline and history *)
}

val build :
  ?threshold_pct:float -> baselines:entry list -> history:snapshot list ->
  unit -> report
(** Assemble the report.  [threshold_pct] defaults to 15.  Skipped
    entries (oversubscribed domain rows etc.) are shown in the table but
    never gate.  Kernels with no history are tracked but not compared —
    the gate only acts on measurements that exist, and the report says
    how many it could compare. *)
