open Stt_relation
module Codec = Stt_store.Codec
module Crc32 = Stt_store.Crc32

let magic = "\x89STTWIRE"

(* v2: Health_reply grew the answer-cache block (budget/used/entries/
   hits/misses).  v3: Update/Updated frames for incremental base-data
   deltas.  v4: Health_reply reports the server's IO backend (epoll vs
   select), so benchmarks can assert which loop they measured.  v5:
   Health_reply carries the live queue depth, a monotonic uptime_ns (so
   a router can detect a restarted shard: uptime going backwards means
   the process it aggregated last time is gone), and a recursive
   per-shard health list (empty for replicas; a router reports one block
   per shard plus fleet-level sums).  v6: Agg/Agg_reply frames for
   semiring aggregate requests — one multi-tuple request folds to a
   single scalar on the server, so the reply carries a value and a cost
   instead of rows.  v7: the health block carries [agg_space] (stored
   aggregate-table rows) so the fleet's full memory story — S-views,
   answer cache, aggregate tables — travels in one reply.  Hellos must
   match exactly, so older peers are refused with Version_skew instead
   of misparsing unknown frames. *)
let protocol_version = 7
let hello_len = String.length magic + 4
let max_frame_len = 1 lsl 26

type error =
  | Io_error of string
  | Closed
  | Bad_magic
  | Version_skew of { found : int; expected : int }
  | Truncated of string
  | Checksum_mismatch
  | Malformed of string

let error_to_string = function
  | Io_error msg -> "io error: " ^ msg
  | Closed -> "connection closed by peer"
  | Bad_magic -> "not an stt-net peer (bad magic)"
  | Version_skew { found; expected } ->
      Printf.sprintf "peer speaks protocol version %d, this build expects %d"
        found expected
  | Truncated ctx -> "truncated frame: " ^ ctx
  | Checksum_mismatch -> "frame checksum mismatch"
  | Malformed ctx -> "malformed frame: " ^ ctx

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* ------------------------------------------------------------------ *)
(* frame types                                                          *)
(* ------------------------------------------------------------------ *)

type update = { urel : string; utuple : int array; uadd : bool }

type request =
  | Answer of {
      id : int;
      deadline_us : int;
      arity : int;
      tuples : int array list;
    }
  | Agg of {
      id : int;
      deadline_us : int;
      kind : int;  (** a {!Stt_semiring.Semiring.to_tag} value, 1..4 *)
      arity : int;
      tuples : int array list;
    }
  | Update of { id : int; deltas : update list }
  | Stats of { id : int }
  | Health of { id : int }

type reject = Overloaded | Deadline_exceeded | Bad_request of string

type answer = { rows : int array list; row_arity : int; cost : Cost.snapshot }

type cache_health = {
  cache_budget : int;
  cache_used : int;
  cache_entries : int;
  cache_hits : int;
  cache_misses : int;
}

let no_cache =
  {
    cache_budget = 0;
    cache_used = 0;
    cache_entries = 0;
    cache_hits = 0;
    cache_misses = 0;
  }

type health = {
  ready : bool;
  space : int;
  agg_space : int;
  workers : int;
  queue_capacity : int;
  queue_depth : int;
  uptime_ns : int;
  cache : cache_health;
  io_backend : string;
  shards : (string * health) list;
}

type response =
  | Answers of { id : int; answers : answer list }
  | Updated of { id : int; epoch : int; applied : int; cost : Cost.snapshot }
  | Rejected of { id : int; reject : reject }
  | Stats_reply of { id : int; json : string }
  | Health_reply of { id : int; health : health }
  | Agg_reply of { id : int; value : int; cost : Cost.snapshot }

let tag_answer = 0x01
let tag_stats = 0x02
let tag_health = 0x03
let tag_update = 0x04
let tag_agg = 0x05
let tag_answers = 0x81
let tag_rejected = 0x82
let tag_stats_reply = 0x83
let tag_health_reply = 0x84
let tag_updated = 0x85
let tag_agg_reply = 0x86

(* ------------------------------------------------------------------ *)
(* encoding                                                             *)
(* ------------------------------------------------------------------ *)

let write_cost e (c : Cost.snapshot) =
  Codec.write_uint e c.Cost.probes;
  Codec.write_uint e c.Cost.tuples;
  Codec.write_uint e c.Cost.scans

let write_request e = function
  | Answer { id; deadline_us; arity; tuples } ->
      Codec.write_u8 e tag_answer;
      Codec.write_uint e id;
      Codec.write_uint e deadline_us;
      Codec.write_uint e arity;
      Codec.write_rows e ~arity tuples
  | Agg { id; deadline_us; kind; arity; tuples } ->
      Codec.write_u8 e tag_agg;
      Codec.write_uint e id;
      Codec.write_uint e deadline_us;
      Codec.write_u8 e kind;
      Codec.write_uint e arity;
      Codec.write_rows e ~arity tuples
  | Update { id; deltas } ->
      Codec.write_u8 e tag_update;
      Codec.write_uint e id;
      Codec.write_list e
        (fun { urel; utuple; uadd } ->
          Codec.write_string e urel;
          Codec.write_uint e (Array.length utuple);
          Array.iter (Codec.write_int e) utuple;
          Codec.write_bool e uadd)
        deltas
  | Stats { id } ->
      Codec.write_u8 e tag_stats;
      Codec.write_uint e id
  | Health { id } ->
      Codec.write_u8 e tag_health;
      Codec.write_uint e id

let rec write_response e = function
  | Answers { id; answers } ->
      Codec.write_u8 e tag_answers;
      Codec.write_uint e id;
      Codec.write_list e
        (fun { rows; row_arity; cost } ->
          Codec.write_uint e row_arity;
          Codec.write_rows e ~arity:row_arity rows;
          write_cost e cost)
        answers
  | Updated { id; epoch; applied; cost } ->
      Codec.write_u8 e tag_updated;
      Codec.write_uint e id;
      Codec.write_uint e epoch;
      Codec.write_uint e applied;
      write_cost e cost
  | Rejected { id; reject } -> (
      Codec.write_u8 e tag_rejected;
      Codec.write_uint e id;
      match reject with
      | Overloaded -> Codec.write_u8 e 1
      | Deadline_exceeded -> Codec.write_u8 e 2
      | Bad_request msg ->
          Codec.write_u8 e 3;
          Codec.write_string e msg)
  | Stats_reply { id; json } ->
      Codec.write_u8 e tag_stats_reply;
      Codec.write_uint e id;
      Codec.write_string e json
  | Health_reply { id; health } ->
      Codec.write_u8 e tag_health_reply;
      Codec.write_uint e id;
      write_health e health
  | Agg_reply { id; value; cost } ->
      Codec.write_u8 e tag_agg_reply;
      Codec.write_uint e id;
      Codec.write_value e value;
      write_cost e cost

(* recursive: a router's block nests one sub-block per shard *)
and write_health e (h : health) =
  Codec.write_bool e h.ready;
  Codec.write_uint e h.space;
  Codec.write_uint e h.agg_space;
  Codec.write_uint e h.workers;
  Codec.write_uint e h.queue_capacity;
  Codec.write_uint e h.queue_depth;
  Codec.write_uint e h.uptime_ns;
  Codec.write_uint e h.cache.cache_budget;
  Codec.write_uint e h.cache.cache_used;
  Codec.write_uint e h.cache.cache_entries;
  Codec.write_uint e h.cache.cache_hits;
  Codec.write_uint e h.cache.cache_misses;
  Codec.write_string e h.io_backend;
  Codec.write_list e
    (fun (name, sub) ->
      Codec.write_string e name;
      write_health e sub)
    h.shards

(* Append a complete wire image — length prefix, body, CRC — to [e]
   without intermediate copies: the prefix is reserved up front and
   patched once the body length is known, and the CRC runs over the
   buffer in place, so a flipped byte anywhere in a blob is caught
   before any field is trusted.  The caller owns [e] (typically a
   per-worker scratch encoder) and writes the socket straight from
   [Codec.data]. *)
let frame_into write e v =
  let start = Codec.length e in
  Codec.write_u32 e 0;
  write e v;
  let body_pos = start + 4 in
  let body_len = Codec.length e - body_pos in
  let crc =
    Crc32.update Crc32.init
      (Bytes.unsafe_to_string (Codec.data e))
      ~pos:body_pos ~len:body_len
  in
  Codec.write_u32 e (Crc32.finish crc);
  Codec.set_u32 e ~pos:start (body_len + 4)

let encode_request_into = frame_into write_request
let encode_response_into = frame_into write_response

(* the [body ^ crc] blob: the same wire image without its prefix *)
let blob_of frame v =
  let e = Codec.encoder () in
  frame e v;
  Bytes.sub_string (Codec.data e) 4 (Codec.length e - 4)

let encode_request = blob_of encode_request_into
let encode_response = blob_of encode_response_into

(* ------------------------------------------------------------------ *)
(* decoding                                                             *)
(* ------------------------------------------------------------------ *)

(* u32 LE at [pos] — how the server reads a length prefix out of its
   connection buffer without slicing it *)
let peek_len src ~pos = Codec.read_u32 (Codec.decoder_sub src ~pos ~len:4)

(* verify the trailing CRC over the range, then run the body decoder on
   a bounded sub-decoder — no copy of the body is taken; the Codec's
   exceptions and leftover bytes map to the typed errors *)
let decode_body_sub what src ~pos ~len f =
  if len < 4 then Error (Truncated (what ^ " shorter than its checksum"))
  else
    let body_len = len - 4 in
    let expect = Codec.read_u32 (Codec.decoder_sub src ~pos:(pos + body_len) ~len:4) in
    let actual = Crc32.finish (Crc32.update Crc32.init src ~pos ~len:body_len) in
    if expect <> actual then Error Checksum_mismatch
    else
      let d = Codec.decoder_sub src ~pos ~len:body_len in
      match
        let v = f d in
        Codec.expect_end d what;
        v
      with
      | v -> Ok v
      | exception Codec.Short ctx -> Error (Truncated ctx)
      | exception Codec.Corrupt ctx -> Error (Malformed ctx)

let decode_body what blob f =
  decode_body_sub what blob ~pos:0 ~len:(String.length blob) f

let read_arity what d =
  let arity = Codec.read_uint d in
  if arity > 64 then
    raise (Codec.Corrupt (Printf.sprintf "%s arity %d" what arity))
  else arity

let request_of_decoder d =
  match Codec.read_u8 d with
  | t when t = tag_answer ->
      let id = Codec.read_uint d in
      let deadline_us = Codec.read_uint d in
      let arity = read_arity "access" d in
      let tuples = Codec.read_rows d ~arity in
      Answer { id; deadline_us; arity; tuples }
  | t when t = tag_agg ->
      let id = Codec.read_uint d in
      let deadline_us = Codec.read_uint d in
      let kind = Codec.read_u8 d in
      if kind < 1 || kind > 4 then
        raise (Codec.Corrupt (Printf.sprintf "aggregate kind %d" kind));
      let arity = read_arity "access" d in
      let tuples = Codec.read_rows d ~arity in
      Agg { id; deadline_us; kind; arity; tuples }
  | t when t = tag_update ->
      let id = Codec.read_uint d in
      let deltas =
        Codec.read_list d (fun () ->
            let urel = Codec.read_string d in
            let arity = read_arity "update" d in
            let utuple = Array.make arity 0 in
            for i = 0 to arity - 1 do
              utuple.(i) <- Codec.read_int d
            done;
            let uadd = Codec.read_bool d in
            { urel; utuple; uadd })
      in
      Update { id; deltas }
  | t when t = tag_stats -> Stats { id = Codec.read_uint d }
  | t when t = tag_health -> Health { id = Codec.read_uint d }
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown request tag 0x%02x" t))

let read_cost d =
  let probes = Codec.read_uint d in
  let tuples = Codec.read_uint d in
  let scans = Codec.read_uint d in
  { Cost.probes; tuples; scans }

let rec response_of_decoder d =
  match Codec.read_u8 d with
  | t when t = tag_answers ->
      let id = Codec.read_uint d in
      let answers =
        Codec.read_list d (fun () ->
            let row_arity = read_arity "answer" d in
            let rows = Codec.read_rows d ~arity:row_arity in
            let cost = read_cost d in
            { rows; row_arity; cost })
      in
      Answers { id; answers }
  | t when t = tag_updated ->
      let id = Codec.read_uint d in
      let epoch = Codec.read_uint d in
      let applied = Codec.read_uint d in
      let cost = read_cost d in
      Updated { id; epoch; applied; cost }
  | t when t = tag_rejected ->
      let id = Codec.read_uint d in
      let reject =
        match Codec.read_u8 d with
        | 1 -> Overloaded
        | 2 -> Deadline_exceeded
        | 3 -> Bad_request (Codec.read_string d)
        | n -> raise (Codec.Corrupt (Printf.sprintf "reject code %d" n))
      in
      Rejected { id; reject }
  | t when t = tag_stats_reply ->
      let id = Codec.read_uint d in
      Stats_reply { id; json = Codec.read_string d }
  | t when t = tag_health_reply ->
      let id = Codec.read_uint d in
      Health_reply { id; health = read_health d ~depth:0 }
  | t when t = tag_agg_reply ->
      let id = Codec.read_uint d in
      let v = Codec.read_value d in
      let cost = read_cost d in
      Agg_reply { id; value = v; cost }
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown response tag 0x%02x" t))

(* a fleet is one router over replicas, so legitimate nesting is depth 1;
   the guard keeps a hostile frame from recursing the decoder deep *)
and read_health d ~depth =
  if depth > 4 then raise (Codec.Corrupt "health nesting too deep");
  let ready = Codec.read_bool d in
  let space = Codec.read_uint d in
  let agg_space = Codec.read_uint d in
  let workers = Codec.read_uint d in
  let queue_capacity = Codec.read_uint d in
  let queue_depth = Codec.read_uint d in
  let uptime_ns = Codec.read_uint d in
  let cache_budget = Codec.read_uint d in
  let cache_used = Codec.read_uint d in
  let cache_entries = Codec.read_uint d in
  let cache_hits = Codec.read_uint d in
  let cache_misses = Codec.read_uint d in
  let io_backend = Codec.read_string d in
  let shards =
    Codec.read_list d (fun () ->
        let name = Codec.read_string d in
        (name, read_health d ~depth:(depth + 1)))
  in
  {
    ready;
    space;
    agg_space;
    workers;
    queue_capacity;
    queue_depth;
    uptime_ns;
    cache =
      { cache_budget; cache_used; cache_entries; cache_hits; cache_misses };
    io_backend;
    shards;
  }

let decode_request blob = decode_body "request" blob request_of_decoder
let decode_response blob = decode_body "response" blob response_of_decoder

let decode_request_sub src ~pos ~len =
  decode_body_sub "request" src ~pos ~len request_of_decoder

let decode_response_sub src ~pos ~len =
  decode_body_sub "response" src ~pos ~len response_of_decoder

(* ------------------------------------------------------------------ *)
(* hello                                                                *)
(* ------------------------------------------------------------------ *)

let hello =
  let e = Codec.encoder () in
  Codec.write_u32 e protocol_version;
  magic ^ Codec.contents e

let check_hello s =
  if String.length s <> hello_len then Error (Truncated "hello")
  else if String.sub s 0 (String.length magic) <> magic then Error Bad_magic
  else
    let d = Codec.decoder (String.sub s (String.length magic) 4) in
    let found = Codec.read_u32 d in
    if found <> protocol_version then
      Error (Version_skew { found; expected = protocol_version })
    else Ok ()

(* ------------------------------------------------------------------ *)
(* blocking frame I/O                                                   *)
(* ------------------------------------------------------------------ *)

let rec really_write fd s pos len =
  if len = 0 then Ok ()
  else
    match Unix.write_substring fd s pos len with
    | 0 -> Error Closed
    | n -> really_write fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> really_write fd s pos len
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> Error Closed
    | exception Unix.Unix_error (e, _, _) ->
        Error (Io_error (Unix.error_message e))

let really_read fd n =
  let buf = Bytes.create n in
  let rec go pos =
    if pos = n then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf pos (n - pos) with
      | 0 -> if pos = 0 then Error Closed else Error (Truncated "frame body")
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Error Closed
      | exception Unix.Unix_error (e, _, _) ->
          Error (Io_error (Unix.error_message e))
  in
  go 0

let write_frame fd blob =
  let e = Codec.encoder () in
  Codec.write_u32 e (String.length blob);
  let framed = Codec.contents e ^ blob in
  really_write fd framed 0 (String.length framed)

let read_frame fd =
  match really_read fd 4 with
  | Error _ as e -> e
  | Ok prefix -> (
      let len = Codec.read_u32 (Codec.decoder prefix) in
      if len < 4 || len > max_frame_len then
        Error (Malformed (Printf.sprintf "frame length %d" len))
      else
        match really_read fd len with
        | Error Closed -> Error (Truncated "frame body")
        | r -> r)

let write_hello fd = really_write fd hello 0 (String.length hello)

let read_hello fd =
  match really_read fd hello_len with
  | Error Closed -> Error Closed
  | Error _ as e -> e
  | Ok s -> check_hello s
