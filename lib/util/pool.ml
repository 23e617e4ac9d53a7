(* Persistent domain pool with deterministic chunking. See the .mli and
   DESIGN §10 for the contract; the short version is that the chunk list
   of a parallel region is a pure function of the input size, workers race
   only for which chunk they run next, and each chunk writes state nobody
   else touches — so results cannot depend on the domain count.

   Synchronization is one mutex + two condition variables per pool.
   Workers park on [work_ready]; posting a job bumps [gen] and broadcasts.
   Chunks are claimed lock-free via [Atomic.fetch_and_add] on [job.next];
   per-chunk completion is tallied under the mutex and the last domain to
   finish broadcasts [work_done]. Those release/acquire pairs are also
   what publishes chunk writes to the caller under the OCaml memory
   model: every chunk's stores happen before its domain's completion
   tally, which happens before the caller's wake-up on the same mutex. *)

type job = {
  chunks : int;
  run : int -> unit;
  next : int Atomic.t; (* next unclaimed chunk index *)
  mutable completed : int; (* chunks finished; guarded by the pool mutex *)
  mutable error : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-chunk-index failure; guarded by the pool mutex *)
}

type t = {
  mutable workers : unit Domain.t array;
  size : int; (* workers + caller *)
  m : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable gen : int; (* job generation, so a worker never re-runs a job *)
  mutable stop : bool;
  mutable busy : bool; (* a parallel region is in flight *)
  mutable alive : bool;
}

(* Per-domain "currently inside a pool task" flag. Kernels consult it via
   [in_task] to fall back to their sequential path instead of deadlocking
   on or re-entering the pool. *)
let in_task_key = Domain.DLS.new_key (fun () -> ref false)
let in_task () = !(Domain.DLS.get in_task_key)

let record_error pool job idx exn bt =
  Mutex.lock pool.m;
  (match job.error with
  | Some (i0, _, _) when i0 <= idx -> ()
  | _ -> job.error <- Some (idx, exn, bt));
  Mutex.unlock pool.m

(* Claim and run chunks until the job is exhausted; returns how many this
   domain ran. Exceptions are captured per chunk (preferring the lowest
   chunk index) so one failure neither kills a worker nor starves the
   caller of the remaining completion tallies. *)
let drain pool job =
  let flag = Domain.DLS.get in_task_key in
  flag := true;
  let ran = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.chunks then continue_ := false
    else begin
      incr ran;
      try job.run i
      with exn -> record_error pool job i exn (Printexc.get_raw_backtrace ())
    end
  done;
  flag := false;
  !ran

let worker_loop pool =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.m;
    let rec await () =
      if pool.stop then None
      else
        match pool.job with
        | Some j when pool.gen <> !last_gen ->
            last_gen := pool.gen;
            Some j
        | _ ->
            Condition.wait pool.work_ready pool.m;
            await ()
    in
    let task = await () in
    Mutex.unlock pool.m;
    match task with
    | None -> running := false
    | Some j ->
        let ran = drain pool j in
        Mutex.lock pool.m;
        j.completed <- j.completed + ran;
        if j.completed >= j.chunks then Condition.broadcast pool.work_done;
        Mutex.unlock pool.m
  done

let run_job pool job =
  Mutex.lock pool.m;
  if not pool.alive then begin
    Mutex.unlock pool.m;
    invalid_arg "Pool: pool has been shut down"
  end;
  if pool.busy then begin
    (* A single domain owns the caller side, so [busy] here means a task
       re-entered the pool (or two domains share one handle — same bug). *)
    Mutex.unlock pool.m;
    invalid_arg "Pool: nested or concurrent parallel call"
  end;
  pool.busy <- true;
  pool.gen <- pool.gen + 1;
  pool.job <- Some job;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.m;
  let ran = drain pool job in
  Mutex.lock pool.m;
  job.completed <- job.completed + ran;
  while job.completed < job.chunks do
    Condition.wait pool.work_done pool.m
  done;
  pool.job <- None;
  pool.busy <- false;
  let err = job.error in
  Mutex.unlock pool.m;
  match err with
  | None -> ()
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt

let resolve_domains = function
  | Some d -> max 1 d
  | None -> (
      match Sys.getenv_opt "CANOPY_DOMAINS" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some d when d >= 1 -> d
          | _ ->
              invalid_arg
                (Printf.sprintf
                   "Pool: CANOPY_DOMAINS must be a positive integer, got %S" s))
      | None -> max 1 (Domain.recommended_domain_count ()))

let create ?domains () =
  let size = resolve_domains domains in
  let pool =
    {
      workers = [||];
      size;
      m = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      gen = 0;
      stop = false;
      busy = false;
      alive = true;
    }
  in
  pool.workers <-
    Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let domains pool = pool.size

let shutdown pool =
  Mutex.lock pool.m;
  if pool.alive then begin
    pool.alive <- false;
    pool.stop <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.m;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end
  else Mutex.unlock pool.m

(* Ambient pool: created lazily so processes that never hit a parallel
   threshold spawn no domains, torn down at exit so worker domains do not
   outlive the program. *)
let default_pool = ref None
let default_m = Mutex.create ()

let () =
  at_exit (fun () ->
      match !default_pool with Some p -> shutdown p | None -> ())

let default () =
  Mutex.lock default_m;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_m;
  p

let set_default p =
  Mutex.lock default_m;
  default_pool := Some p;
  Mutex.unlock default_m

let parallel_for_chunks ?pool ~chunk n f =
  if chunk <= 0 then invalid_arg "Pool.parallel_for_chunks: chunk";
  if n < 0 then invalid_arg "Pool.parallel_for_chunks: n";
  if in_task () then
    invalid_arg "Pool.parallel_for_chunks: nested parallel call";
  if n > 0 then begin
    let chunks = (n + chunk - 1) / chunk in
    let run i =
      let lo = i * chunk in
      f ~lo ~hi:(min n (lo + chunk))
    in
    let pool = match pool with Some p -> p | None -> default () in
    if not pool.alive then invalid_arg "Pool: pool has been shut down";
    if pool.size = 1 || chunks = 1 then begin
      (* Degenerate path: same chunk decomposition, ascending order, on
         the calling domain. Bit-identical by construction. *)
      let flag = Domain.DLS.get in_task_key in
      flag := true;
      Fun.protect
        ~finally:(fun () -> flag := false)
        (fun () ->
          for i = 0 to chunks - 1 do
            run i
          done)
    end
    else run_job pool { chunks; run; next = Atomic.make 0; completed = 0; error = None }
  end

let map ?pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for_chunks ?pool ~chunk:1 n (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          out.(i) <- Some (f arr.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let map_list ?pool f l = Array.to_list (map ?pool f (Array.of_list l))
