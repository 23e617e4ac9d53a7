(** The [canopy-train v2] full-state training checkpoint.

    A sectioned, checksummed text container carrying everything a
    training run needs to resume bit-for-bit: the six TD3 networks (each
    a complete [canopy-mlp v1] payload), the three Adam moment sets, the
    replay buffer with its exact storage layout, the splitmix64 PRNG
    state, and the gradient-step counter — plus caller-supplied extra
    sections (the trainer stores its step/epoch progress and the reward
    curve this way).

    Integrity is layered: line 1 carries a CRC-32 and byte count over the
    entire body (catching header/fingerprint tampering and truncation),
    and every section header carries a CRC-32 over its payload (so a load
    failure names the corrupt section). All writes go through
    {!Canopy_util.Atomic_file}, so a crash mid-save leaves the previous
    checkpoint intact rather than a torn file. *)

open Canopy_nn

val encode : fingerprint:string -> ?extra:(string * string) list -> Td3.t -> string
(** Serialize the agent's full {!Td3.snapshot} plus [extra]
    [(name, payload)] sections. [fingerprint] is an opaque
    configuration digest stored in the clear and verified by callers on
    resume; it must not contain a newline. *)

val decode : string -> string * (string * string) list
(** [(fingerprint, sections)] in file order. Raises [Failure] with a
    precise diagnostic on bad magic, truncation, outer-checksum mismatch,
    or a per-section checksum mismatch (naming the section). *)

val restore : Td3.t -> (string * string) list -> unit
(** Rebuild a {!Td3.snapshot} from decoded sections and {!Td3.restore}
    the agent in place. Extra/unknown sections are ignored. Raises
    [Failure] on missing or malformed agent sections, [Invalid_argument]
    on shape mismatch with the live agent. *)

val write : path:string -> string -> unit
(** Atomic write of an encoded container (stage + rename). *)

val read : string -> string
(** Read a whole checkpoint file (binary-safe). *)

val actor_of_file : string -> Mlp.t
(** Load an actor network from a file in either format: a bare
    [canopy-mlp v1] checkpoint, or the [actor] section of a
    [canopy-train v2] container. Raises [Failure] on unrecognized or
    corrupt input. *)
