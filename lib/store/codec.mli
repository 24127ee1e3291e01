(** The one byte layout of snapshots, cache keys and values, and wire
    frames.

    Encoders append to a growable buffer; decoders walk a string slice.
    Integers use LEB128 varints (zigzag for signed values), so small
    ids, arities and deltas cost one byte.  [write_rows]/[read_rows]
    encode a block of equal-arity int rows column-major with per-column
    row-to-row deltas — sorted tuple sets compress to a few bits per
    value because each column changes slowly down the rows.

    Decoders never read past their slice: exhaustion raises {!Short} and
    structurally impossible data raises {!Corrupt}, which the {!Store}
    and frame layers map to their typed errors.  Counts are bounded
    where they are read — a varint that does not fit a non-negative
    int, or a count the remaining bytes cannot pay for, is {!Corrupt} —
    so hostile bytes cannot request a huge allocation. *)

exception Short of string
(** Decoder ran out of bytes; the payload is truncated. *)

exception Corrupt of string
(** The bytes decode to a structurally impossible value. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

val guard : string -> (unit -> 'a) -> 'a
(** [guard ctx f] runs a constructor over decoded parts: its
    [Invalid_argument], [Failure] or [Not_found] becomes {!Corrupt}
    tagged with [ctx], so a CRC-valid but impossible structure is
    rejected at load time rather than failing later. *)

(** {1 Encoding} *)

type encoder
(** A growable byte buffer with exposed backing bytes: the server
    encodes a complete wire image into a reusable encoder and writes
    the socket straight out of {!data}. *)

val encoder : ?capacity:int -> unit -> encoder
(** A fresh, empty encoder with at least [capacity] bytes of room
    (default 1024). *)

val length : encoder -> int
val clear : encoder -> unit

val data : encoder -> Bytes.t
(** The backing bytes; valid in [[0, length)].  Invalidated by any
    subsequent write (the buffer may grow and reallocate). *)

val contents : encoder -> string
(** Copy out [[0, length)]. *)

val write_u8 : encoder -> int -> unit
val write_u32 : encoder -> int -> unit
(** Fixed-width little-endian, for the fields that must live at stable
    byte offsets (format version, frame length prefix and CRC). *)

val set_u32 : encoder -> pos:int -> int -> unit
(** Patch a u32 written earlier — a frame's length prefix is reserved
    before its body is encoded. *)

val write_uint : encoder -> int -> unit
(** LEB128 varint; the int must be non-negative. *)

val write_int : encoder -> int -> unit
(** Zigzag varint: small magnitudes of either sign stay small.  The
    value must lie in [[-2^61, 2^61 - 1]] — the zigzag of anything
    larger overflows OCaml's 63-bit int. *)

val write_bool : encoder -> bool -> unit
val write_string : encoder -> string -> unit
val write_list : encoder -> ('a -> unit) -> 'a list -> unit
(** Length prefix, then each element with the given writer. *)

val write_rows : encoder -> arity:int -> int array list -> unit
(** Column-major delta encoding of equal-arity rows, in the order
    given.  [arity] may be 0 (rows are empty tuples): the block is then
    just the count. *)

val write_value : encoder -> int -> unit
(** A semiring value: tag byte 0 and a zigzag varint, or the bare tag 1
    for [max_int] and 2 for [min_int] — the tropical ±infinity
    sentinels, which the zigzag cannot carry. *)

(** {2 Raw bytes}

    A connection's pending-write queue is an encoder too. *)

val write_bytes : encoder -> Bytes.t -> pos:int -> len:int -> unit
(** Append a byte range verbatim (no length prefix). *)

val drop_front : encoder -> int -> unit
(** Drop the first [n] bytes (they reached the wire), compacting the
    rest to the front. *)

(** {1 Decoding} *)

type decoder

val decoder : string -> decoder

val decoder_sub : string -> pos:int -> len:int -> decoder
(** Decode the window [[pos, pos+len)] of the string without copying it
    out first — the network layer cuts frames straight out of its
    connection read buffer.  Raises [Invalid_argument] on an
    out-of-bounds window. *)

val remaining : decoder -> int
val read_u8 : decoder -> int
val read_u32 : decoder -> int
val read_uint : decoder -> int
(** {!Corrupt} on a varint that does not fit a non-negative int. *)

val read_int : decoder -> int
val read_bool : decoder -> bool
val read_string : decoder -> string

val read_bytes : decoder -> int -> string
(** Exactly [n] raw bytes (no length prefix); {!Short} if fewer remain. *)

val read_list : decoder -> (unit -> 'a) -> 'a list
(** {!Corrupt} on a count above the remaining bytes + 1. *)

val read_rows : decoder -> arity:int -> int array list
(** Inverse of {!write_rows}; rows come back in written order.  Each
    value costs at least one byte, so a count above
    [remaining / arity] is {!Corrupt}; an arity-0 block pays nothing
    and may claim at most 65,536 rows. *)

val read_value : decoder -> int
(** Inverse of {!write_value}; {!Corrupt} on an unknown tag. *)

val expect_end : decoder -> string -> unit
(** Raises {!Corrupt} if any byte is left — every section must be
    consumed exactly. *)
