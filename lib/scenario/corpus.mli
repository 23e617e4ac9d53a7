(** The archived worst-case corpus (`_artifacts/scenarios/`).

    Each record is one discovered worst-case scenario: the search
    vector, the scenario seed it compiled with, and the objective score
    the searching policy achieved. Records round-trip exactly (floats
    are stored as hex literals), so an archived scenario replays bit
    for bit; {!save} also renders the compiled trace next to the record
    as a plain Mahimahi file, which is what {!Canopy_trace.Suite} and
    `tracegen` consume. All writes are atomic. *)

type record = {
  rec_name : string;  (** file stem, e.g. ["adv-utility-000042"] *)
  objective : string;  (** {!Search.objective_name} of the search *)
  score : float;  (** the policy-goodness score at discovery time *)
  search_seed : int;  (** seed of the search that found it *)
  scn_seed : int;  (** seed {!Space.compile} must be called with *)
  vector : float array;  (** the scenario point, {!Space.dims} order *)
}

val of_search : search_seed:int -> Search.objective -> Search.candidate -> record
(** Name the candidate ["adv-<objective>-<scn_seed>"] and package it. *)

val save : dir:string -> duration_ms:int -> record -> string
(** Write [<dir>/<rec_name>.scn] (the record) and [<dir>/<rec_name>.trace]
    (the compiled trace, Mahimahi format, rendered at [duration_ms]),
    creating [dir] as needed; both atomically. Returns the record path. *)

val load_file : string -> record
(** Raises [Failure] on malformed or version-mismatched input, including
    a NaN or infinite dim. *)

val load_dir : string -> record list
(** All [*.scn] records under the directory, sorted by file name;
    [[]] when the directory does not exist. *)

val compiled : duration_ms:int -> record -> Space.compiled
(** Recompile the archived scenario — bit-identical to what the search
    evaluated when [duration_ms] matches the search configuration. *)

val trace : duration_ms:int -> record -> Canopy_trace.Trace.t
(** Just the bandwidth trace, named after the record. *)

val env_config : duration_ms:int -> record -> Canopy_orca.Agent_env.config
(** A training-pool entry for {!Canopy.Trainer}: the compiled trace and
    impairments behind a 2-BDP buffer, history 5 (as
    [Trainer.env_pool]'s) — append these to [Trainer.env_pool] to harden
    a policy against the corpus. *)
