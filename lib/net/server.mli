(** Concurrent TCP server for online CQAP answering: the replica role
    over {!Core}.

    Threading model: one IO domain runs a readiness loop over
    {!Evloop} — edge-triggered epoll where available, select otherwise —
    that accepts connections, buffers bytes and cuts them into frames
    (decoded in place, no per-frame copy).  Decoded [Answer], [Agg] and
    [Update] requests go through {!Core.submit}, the job runner the
    router shares, into a {b bounded} job queue drained by a fixed pool
    of worker domains, each answering through the shared handler (the
    engine's online path only touches per-call state, so a single built
    index serves all workers without locks).  [Stats] and [Health]
    frames are answered inline by the IO domain.

    Byte path: sockets are nonblocking end to end.  Each domain encodes
    responses into its own reusable scratch buffer and writes the socket
    straight from it; bytes a full socket refuses are stashed on the
    connection's pending buffer and flushed by the IO domain when the
    socket drains (write interest is granted and dropped per
    connection), so a slow reader costs memory, never a stalled worker.
    Per-connection read and pending buffers are pooled across
    connection churn.

    Updates (protocol v3): decoded [Update] frames travel through the
    same bounded queue as answers, but run under the {e write} side of a
    writer-priority reader/writer lock while answer jobs hold the read
    side — a delta batch is applied atomically between answer jobs, and
    a steady stream of answers cannot starve a waiting update.  Servers
    started without an [update_handler] reject updates as
    [Bad_request].

    Backpressure: when the job queue is full the request is {e shed}
    with an explicit [Overloaded] rejection instead of queueing
    unboundedly.  Deadlines: a request's [deadline_us] budget starts
    when its frame is decoded, runs on the monotonic clock, and is
    checked both before the handler runs and after it returns — either
    check failing yields [Deadline_exceeded].

    Shutdown: {!stop} stops accepting and reading, lets the workers
    drain every already-queued job (each gets its reply), then {!wait}
    joins all domains and closes the sockets.  Per-request observability
    (spans, op counts, service-time histogram) accumulates in a
    server-owned {!Obs.context}, served over the wire via [Stats]. *)

open Stt_relation

type handler = arity:int -> int array list -> (int array list * int * Cost.snapshot) list
(** [handler ~arity tuples] answers a batch of access tuples, returning
    — in input order — each tuple's sorted answer rows, their arity and
    the per-request op counts.  Raising [Failure msg] rejects the batch
    as [Bad_request msg].  Must be safe to call concurrently from
    multiple domains. *)

val engine_handler : Stt_core.Engine.t -> handler
(** Answer through [Engine.answer_batch]; rejects batches whose arity
    differs from the engine's access schema.  If the engine has an
    answer cache attached it is shared by all worker domains — the
    cache is striped and lock-protected, the rest of the online path
    touches only per-call state. *)

val engine_cache_info : Stt_core.Engine.t -> unit -> Frame.cache_health
(** Live cache occupancy and hit counts of the engine's attached cache
    ({!Frame.no_cache} when none), for {!start}'s [cache_info]. *)

type update_handler =
  Frame.update list -> (int * int * Cost.snapshot, string) result
(** [update_handler deltas] applies a batch of base-tuple deltas and
    returns [Ok (epoch, applied, cost)] — the post-batch delta epoch,
    the count of effective (non-redundant) deltas, and the maintenance
    op count — or [Error msg] to reject the batch as [Bad_request].
    Runs under the exclusive side of the server's reader/writer lock,
    so it never overlaps an answer job. *)

val engine_update_handler : Stt_core.Engine.t -> update_handler
(** Apply through [Engine.apply_deltas]; engine rejections
    ([Failure]) map to [Error]. *)

type agg_handler = kind:int -> arity:int -> int array list -> int * Cost.snapshot
(** [agg_handler ~kind ~arity tuples] folds {e one} multi-tuple access
    request to its scalar aggregate under the wire kind tag
    ([Stt_semiring.Semiring.to_tag]).  Raising [Failure msg] rejects the
    request as [Bad_request msg].  Runs under the read side of the
    server's lock, concurrently with answer jobs. *)

val engine_agg_handler : Stt_core.Engine.t -> agg_handler
(** Answer through [Engine.answer_agg]; rejects unknown kind tags, arity
    mismatches, and engines without aggregate state ([Failure] from the
    engine maps to [Bad_request]). *)

type stats = {
  connections : int;  (** accepted over the server's lifetime *)
  received : int;  (** [Answer] + [Update] requests received *)
  answered : int;
  updated : int;  (** [Update] batches applied successfully *)
  rejected_overload : int;
  rejected_deadline : int;
  bad_requests : int;  (** malformed frames + handler rejections *)
}

type t

val start :
  ?host:string ->
  port:int ->
  workers:int ->
  queue_capacity:int ->
  ?space:(unit -> int) ->
  ?agg_space:(unit -> int) ->
  ?cache_info:(unit -> Frame.cache_health) ->
  ?update_handler:update_handler ->
  ?agg_handler:agg_handler ->
  ?io_backend:Evloop.backend ->
  handler ->
  t
(** Bind [host:port] (default host [127.0.0.1]; port [0] picks an
    ephemeral port, see {!port}), then spawn the IO domain and [workers]
    worker domains.  [space] and [agg_space] (the engine's stored
    singletons and aggregate-table rows; default: constantly 0) and
    [cache_info] (default: always {!Frame.no_cache}) are polled by the
    IO domain on each [Health] request — an engine's space moves with
    every effective delta — so they must be cheap and safe to call
    concurrently with the workers.  [update_handler] (default:
    none — updates rejected) applies delta batches under the write lock.
    [io_backend] picks the readiness backend explicitly (default
    {!Evloop.default_backend}); raises [Failure] when it is unavailable
    on this platform.  Raises [Invalid_argument] on non-positive
    [workers] or [queue_capacity]; [Unix.Unix_error] if the bind
    fails. *)

val port : t -> int
(** The actually bound port. *)

val io_backend : t -> string
(** Name of the readiness backend the IO loop runs on ([epoll] or
    [select]) — also reported in every [Health] reply. *)

val stop : t -> unit
(** Begin graceful drain: stop accepting and reading, finish every
    in-flight (already queued or running) request.  Idempotent and
    async-signal-safe enough for a [SIGTERM] handler. *)

val stopping : t -> bool
(** Whether {!stop} has been called — lets a main loop sleep until a
    signal handler triggers the drain, then {!wait}. *)

val wait : t -> stats
(** Block until the drain finishes, join every domain, close all
    sockets and return the totals.  Call once, after {!stop} (or from
    another domain while a signal handler calls {!stop}). *)

val stats : t -> stats
(** Current totals (readable while serving). *)

val trace_json : t -> string
(** The server's accumulated [Obs] trace document, serialized — the
    payload of a [Stats_reply]. *)
