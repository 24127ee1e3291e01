(** Wire protocol of the network serving layer.

    A connection opens with a fixed-size hello (8-byte magic + u32 LE
    protocol version, sent by {e both} peers immediately after connect);
    everything after the hellos is length-prefixed frames:

    {v
      length   u32 LE — byte length of body + crc
      body     Codec-encoded frame (u8 tag, then fields)
      crc32    u32 LE, CRC-32 of the body bytes
    v}

    Bodies reuse {!Stt_store.Codec} primitives (LEB128 varints, zigzag
    for signed values, column-major delta row blocks), so a batch of
    sorted access tuples costs a few bits per value on the wire.  The
    per-frame CRC means any single-byte corruption surfaces as a typed
    {!error} — same contract as the snapshot store, checked by the same
    style of flip-sweep test.

    Decoding is total: every decoder returns a [result], never raises,
    and validates strictly (full consumption, checksum, known tags).
    Counts are bounded by the payload that must back them (see
    {!Stt_store.Codec.read_rows}), so a short hostile frame decodes to
    [Malformed] without allocating for the rows it claims. *)

open Stt_relation

val magic : string
(** 8 bytes, ["\x89STTWIRE"]. *)

val protocol_version : int
(** Bumped on any wire change; hellos must match exactly. *)

val hello_len : int
(** Byte length of the hello blob (magic + version). *)

val max_frame_len : int
(** Hard cap on a frame's length prefix (64 MiB) — a corrupt or hostile
    length decodes to {!error} instead of an unbounded allocation. *)

type error =
  | Io_error of string  (** socket read/write failed (errno message) *)
  | Closed  (** peer closed the connection mid-frame or mid-hello *)
  | Bad_magic  (** the peer's hello does not start with {!magic} *)
  | Version_skew of { found : int; expected : int }
      (** the peer speaks an incompatible protocol version *)
  | Truncated of string  (** frame body ends mid-structure (context) *)
  | Checksum_mismatch  (** frame body CRC differs *)
  | Malformed of string
      (** bytes decode to an impossible structure (context) *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** {1 Frame types} *)

type update = {
  urel : string;  (** relation name *)
  utuple : int array;
  uadd : bool;  (** [true] = insert, [false] = delete *)
}
(** One base-tuple delta (protocol v3). *)

type request =
  | Answer of {
      id : int;
      deadline_us : int;
          (** serving budget in µs from server receipt; [0] = none.  The
              server checks it before and after the engine call and
              replies [Deadline_exceeded] when blown. *)
      arity : int;
      tuples : int array list;  (** batch of access tuples, one request each *)
    }
  | Agg of {
      id : int;
      deadline_us : int;
      kind : int;
          (** a {!Stt_semiring.Semiring.to_tag} value (1..4); decode
              rejects anything else *)
      arity : int;
      tuples : int array list;
          (** {e one} multi-tuple access request — the server folds the
              whole tuple set to a single scalar (protocol v6) *)
    }
  | Update of { id : int; deltas : update list }
      (** apply a batch of base-data deltas atomically between answer
          jobs; redundant deltas are no-ops *)
  | Stats of { id : int }  (** fetch the server's observability trace *)
  | Health of { id : int }  (** readiness probe *)

type reject =
  | Overloaded  (** job queue full — shed instead of queueing unboundedly *)
  | Deadline_exceeded
  | Bad_request of string

type answer = {
  rows : int array list;  (** this tuple's answer slice, sorted *)
  row_arity : int;
  cost : Cost.snapshot;  (** per-request online op counts *)
}

type cache_health = {
  cache_budget : int;  (** configured answer-cache budget; 0 = no cache *)
  cache_used : int;  (** stored tuples currently held by the cache *)
  cache_entries : int;
  cache_hits : int;
  cache_misses : int;
}

val no_cache : cache_health
(** The all-zero block a cache-less server reports. *)

type health = {
  ready : bool;
  space : int;  (** intrinsic stored singletons of the served engine *)
  agg_space : int;
      (** stored aggregate-table rows (protocol v7); with [space] and
          the cache block this completes the engine's memory story —
          their sum is [Engine.total_space] on the serving side *)
  workers : int;
  queue_capacity : int;
  queue_depth : int;
      (** jobs waiting in the bounded queue at reply time (protocol v5) *)
  uptime_ns : int;
      (** monotonic nanoseconds since the serving process started
          (protocol v5).  A router compares this across polls: a value
          that went {e backwards} means the shard restarted, so any
          health or cache statistics it aggregated before are stale and
          must be discarded. *)
  cache : cache_health;  (** answer-cache occupancy and hit counts *)
  io_backend : string;
      (** the readiness backend the server's IO loop runs on ([epoll] or
          [select], protocol v4) — benchmarks assert which loop they
          measured *)
  shards : (string * health) list;
      (** per-shard health blocks, named (protocol v5).  Empty for a
          replica; a router reports one block per shard and fleet-level
          sums in the top-level fields.  Nesting is bounded (depth 4) at
          decode time. *)
}

type response =
  | Answers of { id : int; answers : answer list }
      (** in the order of the request's tuples *)
  | Updated of { id : int; epoch : int; applied : int; cost : Cost.snapshot }
      (** [epoch] is the engine's delta epoch after the batch; [applied]
          counts the effective (non-redundant) deltas; [cost] is the
          maintenance op count *)
  | Rejected of { id : int; reject : reject }
  | Stats_reply of { id : int; json : string }
      (** the server's [Obs.trace] document, serialized *)
  | Health_reply of { id : int; health : health }
  | Agg_reply of { id : int; value : int; cost : Cost.snapshot }
      (** the scalar aggregate of an [Agg] request (protocol v6).  The
          value may be any [int], including the tropical ±infinity
          sentinels ([max_int]/[min_int]) — the wire layout tags them
          specially since the zigzag varint cannot carry them. *)

(** {1 Encoding / decoding}

    Encoders produce the [body ^ crc] blob (no length prefix); decoders
    take exactly that blob. *)

val encode_request : request -> string
val decode_request : string -> (request, error) result
val encode_response : response -> string
val decode_response : string -> (response, error) result

(** {1 Zero-copy encoding / decoding}

    The server's hot path: encoders append a {e complete} wire image —
    length prefix, body, CRC — to a caller-owned (typically reused)
    {!Stt_store.Codec.encoder}, so a steady-state response allocates
    nothing; decoders read a frame blob in place out of a larger buffer
    (the connection's read buffer) without slicing it.  The string
    encoders above are these wire images without their length prefix. *)

val encode_request_into : Stt_store.Codec.encoder -> request -> unit
val encode_response_into : Stt_store.Codec.encoder -> response -> unit

val decode_request_sub :
  string -> pos:int -> len:int -> (request, error) result
(** Decode the [body ^ crc] blob at [[pos, pos+len)]. *)

val decode_response_sub :
  string -> pos:int -> len:int -> (response, error) result

val peek_len : string -> pos:int -> int
(** The u32 LE length prefix at [pos] ([pos + 4] bytes must exist). *)

val hello : string
(** The blob each peer writes immediately after connect. *)

val check_hello : string -> (unit, error) result

(** {1 Blocking frame I/O}

    Used by the client and the load generator; the server's accept loop
    does its own non-blocking buffering over the same framing layout
    (u32 length prefix + blob). *)

val write_frame : Unix.file_descr -> string -> (unit, error) result
(** Length prefix + blob, written fully. *)

val read_frame : Unix.file_descr -> (string, error) result
(** Read one length prefix and exactly that many bytes. *)

val write_hello : Unix.file_descr -> (unit, error) result
val read_hello : Unix.file_descr -> (unit, error) result
