(** Role-agnostic serving core: the accept/IO-loop/drain machinery
    shared by the replica role ({!Server}) and the sharded tier's router
    ([Stt_shard.Router]).

    The core moves frames; a {e role} decides what they mean.  On every
    decoded request the core calls the role's [handle] callback (on the
    IO domain, so it must not block); the role replies inline with
    {!reply} or hands the request's work to {!submit}, the one job
    runner both roles queue their requests through.  Role state lives
    in the closures the role passes to {!start} — the core holds none
    of it.

    Threading contract (inherited by both roles):
    - the IO domain owns the event loop, read buffers, and fd teardown;
    - jobs run on worker domains and may call {!reply} freely (writes
      are serialized per connection; refused bytes are stashed and
      flushed by the IO domain on writability);
    - {!stop} begins a graceful drain: no new connections or reads,
      queued jobs still run and their responses are flushed, then
      {!wait} joins every domain. *)

type t
(** A running core (listening socket + IO domain + worker pool). *)

type conn
(** One accepted connection.  Valid for the connection's lifetime; after
    the peer disappears, {!reply} on it is a silent no-op. *)

type stats = {
  connections : int;  (** accepted over the lifetime *)
  received : int;  (** Answer/Agg/Update requests seen (role-counted) *)
  answered : int;
  updated : int;
  rejected_overload : int;
  rejected_deadline : int;
  bad_requests : int;  (** undecodable frames, bad hellos, handler errors *)
}

val start :
  ?host:string ->
  port:int ->
  workers:int ->
  queue_capacity:int ->
  ?io_backend:Evloop.backend ->
  (t -> conn -> now_ns:int -> Frame.request -> unit) ->
  t
(** [start ~port ~workers ~queue_capacity handle] binds (port [0] picks
    an ephemeral port — read it back with {!port}), spawns the worker
    pool and the IO domain, and calls [handle core conn ~now_ns req] on
    the IO domain for every request decoded off a connection.  [now_ns]
    is {!Mono.now_ns} at decode time, where a request's deadline budget
    starts.

    Raises [Invalid_argument] on a non-positive [workers] or
    [queue_capacity]; [Unix.Unix_error] if the bind fails. *)

(** {1 Introspection} *)

val port : t -> int
val io_backend : t -> string
val workers : t -> int
val queue_capacity : t -> int

val queue_depth : t -> int
(** Jobs waiting in the bounded queue right now (protocol v5 Health). *)

val uptime_ns : t -> int
(** Monotonic nanoseconds since {!start} (protocol v5 Health) — never
    goes backwards, so a router polling it detects restarts. *)

val stats : t -> stats

(** {1 Role surface} *)

val reply : t -> conn -> Frame.response -> unit
(** Encode into the calling domain's scratch buffer and write (or stash)
    the frame.  Callable from any domain; serialized per connection. *)

val submit :
  t ->
  conn ->
  now_ns:int ->
  Frame.request ->
  span:string ->
  counter:string ->
  hist:string ->
  (remaining_us:int -> (Frame.response, Frame.reject) result) ->
  unit
(** [submit core conn ~now_ns req ~span ~counter ~hist work] is the job
    runner behind every queued request of either role.  It counts [req]
    received and queues a job, or sheds the request with
    [Rejected Overloaded] when the bounded queue is full.  The job
    rejects with [Deadline_exceeded] when the request's [deadline_us]
    budget (from [now_ns]; an [Update] has none) is gone before [work]
    starts or after it returns [Ok].  [work] runs under a fresh Obs
    context inside the span [span]; [Failure] or any other exception
    becomes [Bad_request].  The job replies with the [Ok] response, or
    [Rejected] with the error, and counts the reply ([answered],
    [updated] for [Updated], or the rejection's counter).  Last it
    merges its context into the core's, bumping [counter] and observing
    the service time in µs under [hist].  [remaining_us] is the budget
    left when [work] starts ([0] = none), for a role that forwards it. *)

val enqueue : t -> (unit -> unit) -> bool
(** Push a job for the worker pool outside {!submit}'s accounting (the
    router polls fleet Health this way); [false] means the bounded queue
    is full.  A job that raises kills its worker domain — catch inside
    the job. *)

val with_obs : t -> (unit -> 'a) -> 'a
(** Run under the core's shared Obs context (serialized) — roles adopt
    finished per-job contexts and bump role metrics through this. *)

val trace_json : t -> string
(** The shared context's [Obs.trace], serialized. *)

(** {1 Role counters}

    The core counts connections, undecodable frames and every request
    that goes through {!submit}; a role that rejects a request inline
    counts it with these. *)

val note_received : t -> unit
val note_bad : t -> unit

(** {1 Lifecycle} *)

val stop : t -> unit
(** Begin graceful drain (idempotent, signal-safe). *)

val stopping : t -> bool

val wait : t -> stats
(** Join the IO domain and workers, close every connection, and return
    the final counters.  Call after {!stop}. *)
