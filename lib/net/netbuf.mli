(** A connection's pending-write queue and the buffer pool of the
    zero-copy frame path.

    Frames are encoded in place — length prefix, body, CRC — into a
    {!Stt_store.Codec.encoder}, and the socket write reads straight out
    of its backing bytes; a worker with a reusable scratch encoder
    allocates nothing per response in steady state.  This module holds
    the socket side of that path: resumable nonblocking writes whose
    leftover bytes queue on a per-connection encoder, and a pool of
    such encoders. *)

type flush =
  | Flushed  (** everything is on the wire *)
  | Again  (** the socket buffer filled; bytes remain queued *)
  | Gone  (** the peer is unreachable; drop the connection *)

val flush : Unix.file_descr -> Stt_store.Codec.encoder -> flush
(** Write as much queued data as the nonblocking socket accepts. *)

val write_or_stash :
  Unix.file_descr ->
  pending:Stt_store.Codec.encoder ->
  Bytes.t ->
  pos:int ->
  len:int ->
  flush
(** Write the range directly when nothing is queued on [pending]
    (common case: zero copies); stash whatever does not fit — or the
    whole range, if [pending] is non-empty, preserving response
    order — for the IO loop to {!flush} when the socket drains. *)

(** {1 Buffer pool} *)

module Pool : sig
  type t

  val create : capacity:int -> t
  (** A thread-safe free list of encoders of the given initial
      [capacity]; at most 64 are retained. *)

  val acquire : t -> Stt_store.Codec.encoder
  val release : t -> Stt_store.Codec.encoder -> unit
end
