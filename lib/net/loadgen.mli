(** Closed-loop multi-connection load generator for {!Server} and the
    sharded tier's router.

    A fixed pool of {e driver} domains multiplexes the connections
    (OCaml 5 caps live domains at a few dozen — one domain per
    connection cannot reach the server's connection limits).  Each
    driver opens its slice of TCP connections, then runs them in
    lockstep rounds: send a frame of Zipf-distributed access tuples on
    every idle connection — an [Answer] frame, or with [kind > 0] an
    [Agg] frame folding the whole batch under that semiring — then
    collect one reply per in-flight connection.  Every connection stays
    closed-loop (one outstanding frame), so server-side concurrency
    equals [connections] regardless of [drivers].  Every round trip's
    latency, timed on {!Mono}, is {!Obs.observe}d into the [net.rtt_us]
    histogram of the connection's context; the contexts are adopted in
    connection order into the {e caller's} current context, and the
    report's p50/p95/p99 are read back with {!Obs.percentile} — the
    summary numbers and the caller's trace JSON can never disagree.

    Accounting is per request: each tuple of an [Answer] frame is one
    request, and so is a whole [Agg] frame.  [sent] splits exactly into
    [answered + rejected_overload + rejected_deadline + errors + lost],
    and any reply that does not match the one outstanding request id is
    counted in [duplicated].  A clean run has [lost = duplicated =
    mismatched = errors = 0]. *)

type config = {
  host : string;
  port : int;
  connections : int;  (** client connections = load-generating domains *)
  requests : int;  (** total access tuples across all connections *)
  batch : int;  (** tuples per request frame *)
  arity : int;  (** access tuple arity *)
  values : int;  (** Zipf domain size (values are drawn from [0, values)) *)
  skew : float;  (** Zipf exponent *)
  seed : int;
  deadline_ms : int;  (** per-request serving budget; [0] = none *)
  drivers : int;
      (** load-generating domains; clamped to [connections].  Keep well
          under OCaml's domain cap (~120 spare) — 4–16 drivers saturate
          a loopback server at hundreds of connections. *)
  active : int;
      (** connections that actually drive requests; [0] means all.  The
          remaining [connections - active] complete the hello and then
          sit parked for the whole run — still established, still
          registered with the server's readiness backend.  This models
          the idle-keepalive fleet a real server carries, the regime
          where select's per-wakeup O(watched) scan dominates and
          edge-triggered epoll pulls away. *)
  kind : int;
      (** [0] asks for tuple answers; [1..4] sends each batch as one
          aggregate request of that semiring tag
          ([Stt_semiring.Semiring.to_tag], the answer-kind byte of
          [Stt_cache.Key]) *)
}

type report = {
  sent : int;  (** requests sent *)
  tuples : int;  (** access tuples sent; equals [sent] for tuple answers *)
  answered : int;
  rows : int;
      (** total answer rows across all answered requests (an
          aggregate's scalar is one row) *)
  rejected_overload : int;
  rejected_deadline : int;
  lost : int;  (** sent but never answered or rejected *)
  duplicated : int;  (** replies whose id matches no outstanding request *)
  mismatched : int;  (** answered requests whose rows differ from [verify] *)
  errors : int;  (** requests burned by transport errors or [Bad_request] *)
  elapsed_s : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  throughput : float;  (** answered requests per second *)
}

val run :
  ?verify:(arity:int -> int array list -> int array list list) ->
  config ->
  (report, string) result
(** Drive the full workload and aggregate.  [verify], given each
    frame's tuples, returns the expected sorted answer rows per request:
    per tuple for tuple answers (e.g. from a local
    [Engine.answer_batch] over the same data), or the single row
    [[| v |]] of the expected aggregate [v] (e.g. from
    [Engine.answer_agg]).  Answered requests are compared against it.
    Returns [Error] only for unusable configs (an unknown [kind]
    included) or when {e no} connection could connect; per-connection
    failures after that surface in the counters.  Temporarily enables
    {!Obs}. *)
