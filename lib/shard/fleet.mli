(** Replica fleet supervision (multi-process bench / smoke tests).

    [launch] ships one snapshot to [count] per-replica boot paths
    ([Stt_store.Store.ship]: validated, atomically written — warm caches
    travel in the snapshot's cache section) and spawns [count]
    [serve-net --from-snapshot ... --port 0] child processes of the
    given executable, scraping each bound ephemeral port from the
    child's stdout.  {!drain} SIGTERMs one replica — its own graceful
    drain answers everything already queued — and {!shutdown} drains the
    rest and reaps every child. *)

type t

type replica = {
  name : string;  (** ring name, ["shard-<i>"] *)
  port : int;  (** bound ephemeral port *)
  pid : int;
  out_fd : Unix.file_descr;  (** child stdout; held open until reaped *)
  snap_path : string;  (** the shipped snapshot copy it booted from *)
}

val launch :
  exe:string ->
  snapshot:string ->
  dir:string ->
  count:int ->
  ?workers:int ->
  ?queue:int ->
  ?cache_budget:int ->
  ?io_backend:string ->
  unit ->
  (t, string) result
(** Spawn the fleet ([workers] domains and [queue] capacity {e per
    replica}; [cache_budget] > 0 attaches an answer cache on each).
    [exe] is typically [Sys.executable_name] of the [stt] binary.  On
    any failure the already-started replicas are shut down and an error
    message returned.  Waits up to 60 s per replica to bind. *)

val endpoints : t -> Router.endpoint list
(** In launch order — feed to [Router.start]. *)

val drain : t -> string -> bool
(** SIGTERM one replica by name, wait for it to exit, reap it.  [false]
    if unknown.  Call [Router.drain_shard] {e first} so new tuples stop
    routing to it. *)

val shutdown : t -> unit
(** Drain and reap every remaining replica (idempotent). *)
