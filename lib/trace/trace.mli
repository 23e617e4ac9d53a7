(** Bandwidth traces: link capacity as a function of time.

    A trace is a piecewise-constant capacity profile (Mbps per
    millisecond) with a name and a total duration; reading past the end
    wraps around, matching Mahimahi's trace-replay semantics. Traces drive
    the bottleneck link of {!Canopy_netsim}. *)

type t

val of_segments : name:string -> (int * float) list -> t
(** [of_segments ~name segments] builds a trace from
    [(duration_ms, mbps)] pieces played in order. Raises
    [Invalid_argument] on an empty list, non-positive durations, or
    negative rates. *)

val constant : name:string -> duration_ms:int -> mbps:float -> t

val of_mbps_array : name:string -> ms_per_sample:int -> float array -> t
(** One capacity sample per [ms_per_sample] milliseconds. *)

val name : t -> string
val duration_ms : t -> int

val mbps_at : t -> int -> float
(** Capacity during millisecond [ms]; wraps modulo the duration. Negative
    times are invalid. *)

val avg_mbps : t -> float
val min_mbps : t -> float
val max_mbps : t -> float

val packets_per_ms : mtu_bytes:int -> t -> int -> float
(** Delivery opportunities (MTU-sized packets) available during the given
    millisecond. *)

val packets_per_ms_into :
  mtu_bytes:int -> t -> first_ms:int -> float array -> len:int -> unit
(** [packets_per_ms_into ~mtu_bytes t ~first_ms dst ~len] writes
    [packets_per_ms ~mtu_bytes t (first_ms + k)] into [dst.(k)] for
    [k < len], the same bits, without allocating. Raises
    [Invalid_argument] if [first_ms < 0] or [len] is negative or past
    [dst]'s length. *)

val to_mahimahi : mtu_bytes:int -> t -> string
(** Render one full period in Mahimahi's packet-delivery-opportunity
    format: one line per opportunity carrying its millisecond timestamp. *)

val of_mahimahi : name:string -> mtu_bytes:int -> string -> t
(** Parse the Mahimahi format back into a per-ms trace. Raises [Failure]
    on malformed input. *)

val save : mtu_bytes:int -> t -> string -> unit
val load : name:string -> mtu_bytes:int -> string -> t
val pp : Format.formatter -> t -> unit
