(** The router role of the sharded serving tier.

    A router is a [Stt_net.Core] process speaking the ordinary frame
    protocol to clients; instead of answering from an engine it
    {e scatters} each [Answer] batch across the shard {!Ring} — every
    tuple routed by the canonical key of [Stt_cache.Key.of_tuple], the
    same equivalence that keys caches and dedups batches — and
    {e gathers} the per-tuple answers back into request order, each
    answer still carrying the op-count snapshot its shard measured.

    Replicas are full snapshot loads, so the hash partition buys cache
    locality and parallelism rather than capacity splitting; that is
    what makes mid-batch failover sound.  When a shard fails a transport
    round, its tuples re-route to the next distinct owner on the ring
    (answering is read-only, hence idempotent) — zero lost, zero
    duplicated.  A shard {e rejection} (overload, deadline) rejects the
    whole client batch instead: partial answers would corrupt the
    client's per-tuple accounting.

    [Agg] requests take the same scatter-gather; only the merge
    differs: the shards' partial aggregates are ⊕-folded, each exactly
    once under failover.  Requests are queued through
    [Stt_net.Core.submit] like a replica's, so shedding, the monotonic
    deadline checks before and after the scatter-gather, Obs spans and
    counters are the replica's too.

    [Health] requests aggregate every shard's protocol-v5 health block
    into a fleet block: summed capacity/cache fields, per-shard blocks
    under [shards], fleet [ready] = all shards ready.  The router tracks
    each shard's monotonic [uptime_ns] between polls; a regression means
    the shard restarted (its statistics do not continue the previous
    process's), counted in {!restarts} and the [route.shard_restarts]
    Obs counter.  [Update] frames are rejected — replicas serve static
    snapshots. *)

type endpoint = { name : string; host : string; port : int }
(** Where a shard listens.  [name] identifies it on the ring (stable
    across reconnects; e.g. ["shard-0"]). *)

type t

val start :
  ?host:string ->
  port:int ->
  workers:int ->
  queue_capacity:int ->
  ?io_backend:Stt_net.Evloop.backend ->
  ?vnodes:int ->
  endpoint list ->
  t
(** Bind and serve (same lifecycle as [Stt_net.Server.start]; port [0]
    picks an ephemeral port).  [workers] bounds concurrent scatter
    rounds; shard connections are pooled per shard and dialed lazily.
    Raises [Invalid_argument] on an empty endpoint list or duplicate
    shard names. *)

(** {1 Live ring membership} *)

val drain_shard : t -> string -> unit
(** Remove a shard from the ring (new tuples stop routing to it) and
    drop its pooled connections.  Pair with SIGTERM to the replica: its
    own graceful drain answers what it already queued, and anything that
    fails mid-flight re-routes to the next owner. *)

val shards : t -> string list
(** Current ring membership (sorted). *)

(** {1 Introspection} *)

val port : t -> int
val io_backend : t -> string
val stats : t -> Stt_net.Core.stats
val trace_json : t -> string

val restarts : t -> int
(** Shard restarts detected via uptime regression across Health polls. *)

val shard_errors : t -> int
(** Transport-level shard failures observed (each failed shard per
    round counts once). *)

val retried_tuples : t -> int
(** Tuples re-routed to another owner after a shard failure. *)

(** {1 Lifecycle} *)

val stop : t -> unit
val stopping : t -> bool
val wait : t -> Stt_net.Core.stats
