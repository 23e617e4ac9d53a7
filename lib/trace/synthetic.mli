(** Synthetic bandwidth-trace families (Appendix B, Figs. 15–17).

    Three generators for traces with controlled but sudden/frequent
    capacity variation, plus the standard 18-trace evaluation set built
    from them. *)

val step_fluctuation :
  duration_ms:int ->
  period_ms:int ->
  low_mbps:float ->
  high_mbps:float ->
  unit ->
  Trace.t
(** Square wave between [low] and [high] every [period_ms] (Fig. 15). *)

val ramp_drop :
  duration_ms:int ->
  cycle_ms:int ->
  floor_mbps:float ->
  peak_mbps:float ->
  unit ->
  Trace.t
(** Capacity climbs linearly from [floor] to [peak] over a cycle, then
    drops instantly back to [floor] (Fig. 16). *)

val triangle :
  duration_ms:int ->
  cycle_ms:int ->
  floor_mbps:float ->
  peak_mbps:float ->
  unit ->
  Trace.t
(** Symmetric linear rise and fall (Fig. 17). *)

val standard_suite : ?duration_ms:int -> unit -> Trace.t list
(** The 18 synthetic evaluation traces: six parameterizations of each of
    the three families, spanning the Table-2 bandwidth range. Deterministic
    (no randomness involved). *)
