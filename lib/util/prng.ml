type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* Index-derived child streams: one parent draw keys a whole family of
   children, so deriving the stream for task [i] of a parallel region
   costs the parent exactly one advance regardless of how many siblings
   exist — the derivation order cannot depend on scheduling. Odd
   multiples of [golden] keep the per-index offsets distinct and coprime
   with 2^64; the outer [mix] decorrelates neighbouring indices. *)
let split t idx =
  if idx < 0 then invalid_arg "Prng.split: negative index";
  let key = bits64 t in
  { state = mix (Int64.add key (Int64.mul golden (Int64.of_int ((2 * idx) + 1)))) }

let copy t = { state = t.state }
let state t = t.state
let of_state s = { state = s }
let set_state t s = t.state <- s

(* Deterministic decorrelated jump: each salt lands the generator on a
   distinct, well-mixed stream. Used by the divergence watchdog so a
   rolled-back run explores differently instead of replaying the exact
   trajectory that produced the fault. Odd multiples of [golden] keep the
   increment coprime with 2^64. *)
let reseed t ~salt =
  t.state <-
    mix (Int64.add t.state (Int64.mul golden (Int64.of_int ((2 * salt) + 1))))

(* Uniform float in [0,1) from the top 53 bits. *)
let unit_float t =
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. 0x1p-53

let int t bound =
  assert (bound > 0);
  (* Rejection-free modulo is fine for simulation purposes when bound is
     far below 2^62; keep it simple. The double shift keeps the value
     inside OCaml's 63-bit int range, hence non-negative. *)
  let x = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  x mod bound

let float t bound = unit_float t *. bound

let uniform t lo hi = lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t =
  (* Box–Muller; guard against log 0. *)
  let rec nonzero () =
    let u = unit_float t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = unit_float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let gaussian_scaled t ~mu ~sigma = mu +. (sigma *. gaussian t)

let exponential t ~rate =
  assert (rate > 0.);
  let rec nonzero () =
    let u = unit_float t in
    if u > 0. then u else nonzero ()
  in
  -.log (nonzero ()) /. rate
