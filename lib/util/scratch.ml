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

(* A slot's cached arrays, most recently used first, in the fixed array
   [entries] (cells from [count] on are unused). A slot alternates between
   at most a couple of shapes in practice (the full-size chunk and the
   short tail chunk of a parallel region, or the GEMM panels of a pass
   over layers of several widths), so the cache is a short
   most-recently-used list, reordered in place: a hit allocates nothing
   wherever the entry sits. *)
let max_entries_per_slot = 8

type slot = { entries : float array array; mutable count : int }
type t = { mutable slots : slot array }

let create () = { slots = [||] }

let ensure_slot t slot =
  if slot >= Array.length t.slots then begin
    let grown =
      Array.init (max (slot + 1) ((2 * Array.length t.slots) + 1)) (fun i ->
          if i < Array.length t.slots then t.slots.(i)
          else
            {
              entries = Array.init max_entries_per_slot (fun _ -> [||]);
              count = 0;
            })
    in
    t.slots <- grown
  end

(* The arena's slow path: move the entry of [len] cells to the front of
   the slot, or allocate one there, dropping the least recently used
   entry of a full slot. *)
let lookup s ~len =
  let e = s.entries in
  let i = ref 1 in
  while !i < s.count && Array.length e.(!i) <> len do
    incr i
  done;
  let arr =
    if !i < s.count then e.(!i)
    else begin
      if s.count < max_entries_per_slot then s.count <- s.count + 1;
      i := s.count - 1;
      Array.create_float len
    end
  in
  Array.blit e 0 e 1 !i;
  e.(0) <- arr;
  arr

let get t ~slot ~len =
  if slot < 0 then invalid_arg "Scratch.get: slot";
  if len <= 0 then invalid_arg "Scratch.get: len";
  ensure_slot t slot;
  let s = t.slots.(slot) in
  (* A hit on the front entry, the steady state of a loop that asks for
     one shape, is already most recent: it allocates nothing. *)
  if s.count > 0 && Array.length s.entries.(0) = len then s.entries.(0)
  else lookup s ~len
