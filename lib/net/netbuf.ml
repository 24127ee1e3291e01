(* A connection's pending-write queue and the buffer pool, over the one
   encoder: frames are encoded in place into a [Codec.encoder] and
   written straight out of its backing bytes.

   Buffers are pooled: connections borrow their pending-write buffers
   from a shared free list and return them on close, so steady-state
   connection churn allocates nothing. *)

module Codec = Stt_store.Codec

(* ------------------------------------------------------------------ *)
(* resumable nonblocking writes                                         *)
(* ------------------------------------------------------------------ *)

(* Pending bytes of a connection live in [0, length); [flush] writes
   them without blocking and drops what reached the wire, so a slow
   reader costs memory, not a stalled worker. *)

type flush = Flushed | Again | Gone

let rec flush fd b =
  if Codec.length b = 0 then Flushed
  else
    match Unix.write fd (Codec.data b) 0 (Codec.length b) with
    | 0 -> Gone
    | n ->
        Codec.drop_front b n;
        if Codec.length b = 0 then Flushed else flush fd b
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Again
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush fd b
    | exception Unix.Unix_error (_, _, _) -> Gone

(* write [src.(pos .. pos+len)] directly; whatever does not fit in the
   socket buffer is stashed into [pending] for the IO loop to resume *)
let write_or_stash fd ~pending src ~pos ~len =
  if Codec.length pending > 0 then begin
    (* keep responses ordered: once anything is queued, append *)
    Codec.write_bytes pending src ~pos ~len;
    Again
  end
  else
    let off = ref pos and left = ref len in
    let rec go () =
      if !left = 0 then Flushed
      else
        match Unix.write fd src !off !left with
        | 0 -> Gone
        | n ->
            off := !off + n;
            left := !left - n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Codec.write_bytes pending src ~pos:!off ~len:!left;
            Again
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (_, _, _) -> Gone
    in
    go ()

(* ------------------------------------------------------------------ *)
(* buffer pool                                                          *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  let max_free = 64

  type t = {
    m : Mutex.t;
    mutable free : Codec.encoder list;
    mutable free_n : int;
    capacity : int;
  }

  let create ~capacity =
    { m = Mutex.create (); free = []; free_n = 0; capacity }

  let acquire p =
    Mutex.protect p.m (fun () ->
        match p.free with
        | b :: rest ->
            p.free <- rest;
            p.free_n <- p.free_n - 1;
            b
        | [] -> Codec.encoder ~capacity:p.capacity ())

  let release p b =
    Codec.clear b;
    Mutex.protect p.m (fun () ->
        if p.free_n < max_free then begin
          p.free <- b :: p.free;
          p.free_n <- p.free_n + 1
        end)
end
