(* Per-domain scratch arenas. A [Scratch.t] is a small table of numbered
   slots, each caching the float arrays previously handed out for that
   slot, keyed by exact length. The intended owner is a [Domain.DLS] key
   (one arena per domain), so kernels running inside pool tasks reuse
   workspace buffers across chunks instead of allocating per chunk and
   fighting the GC — see DESIGN §10 for the ownership rules.

   Arrays are returned uninitialized on reuse: a caller must overwrite
   every cell it reads, which is also what makes results independent of
   whether the arena is warm or cold (the bit-equality tests exercise
   both states). Lengths are exact, never rounded up, so kernels that
   iterate [Array.length] see the shape they asked for. *)

type slot = { mutable entries : float array list }

type t = { mutable slots : slot array }

let create () = { slots = [||] }

(* A slot alternates between at most a couple of shapes in practice (the
   full-size chunk and the short tail chunk of a parallel region), so the
   per-slot cache is a short most-recently-used list. *)
let max_entries_per_slot = 8

let ensure_slot t slot =
  if slot >= Array.length t.slots then begin
    let grown =
      Array.init (max (slot + 1) ((2 * Array.length t.slots) + 1)) (fun i ->
          if i < Array.length t.slots then t.slots.(i)
          else { entries = [] })
    in
    t.slots <- grown
  end

(* The arena's slow path: move an entry of [len] cells to the front of
   the slot's list, or allocate one there. *)
let lookup s ~len =
  let rec find acc = function
    | [] ->
        let arr = Array.create_float len in
        let kept =
          if List.length s.entries >= max_entries_per_slot then
            List.filteri (fun i _ -> i < max_entries_per_slot - 1) s.entries
          else s.entries
        in
        s.entries <- arr :: kept;
        arr
    | a :: rest when Array.length a = len ->
        (* Move-to-front keeps the common shapes O(1) to find. *)
        s.entries <- a :: List.rev_append acc rest;
        a
    | a :: rest -> find (a :: acc) rest
  in
  find [] s.entries

let get t ~slot ~len =
  if slot < 0 then invalid_arg "Scratch.get: slot";
  if len <= 0 then invalid_arg "Scratch.get: len";
  ensure_slot t slot;
  let s = t.slots.(slot) in
  (* A hit on the front entry, the steady state of a loop that asks for
     one shape, is already most recent: it allocates nothing. *)
  match s.entries with
  | a :: _ when Array.length a = len -> a
  | _ -> lookup s ~len
