type transition = {
  state : float array;
  action : float array;
  reward : float;
  next_state : float array;
  terminal : bool;
  truncated : bool;
}

type t = {
  data : transition option array;
  mutable next : int;
  mutable len : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Replay_buffer.create: capacity";
  { data = Array.make capacity None; next = 0; len = 0 }

let capacity t = Array.length t.data
let length t = t.len

let add t tr =
  t.data.(t.next) <- Some tr;
  t.next <- (t.next + 1) mod capacity t;
  t.len <- min (capacity t) (t.len + 1)

let sample t rng ~batch_size =
  if t.len = 0 then invalid_arg "Replay_buffer.sample: empty";
  if batch_size <= 0 then invalid_arg "Replay_buffer.sample: batch_size";
  Array.init batch_size (fun _ ->
      match t.data.(Canopy_util.Prng.int rng t.len) with
      | Some tr -> tr
      | None -> assert false)

let cursor t = t.next

(* Storage order (slot 0 .. len-1), NOT insertion order: [sample] indexes
   raw slots, so a checkpoint that preserves slot layout and [cursor]
   replays identical batches from an identical PRNG state. *)
let iter f t =
  for i = 0 to t.len - 1 do
    match t.data.(i) with Some tr -> f tr | None -> assert false
  done

let of_seq ~capacity:cap ?cursor seq =
  let t = create ~capacity:cap in
  Seq.iter
    (fun tr ->
      if t.len >= cap then
        invalid_arg "Replay_buffer.of_seq: more transitions than capacity";
      t.data.(t.len) <- Some tr;
      t.len <- t.len + 1)
    seq;
  t.next <- t.len mod cap;
  (match cursor with
  | None -> ()
  | Some c ->
      let valid =
        if t.len < cap then c = t.len else c >= 0 && c < cap
      in
      if not valid then
        invalid_arg
          (Printf.sprintf
             "Replay_buffer.of_seq: cursor %d inconsistent with len %d \
              capacity %d"
             c t.len cap);
      t.next <- c);
  t
