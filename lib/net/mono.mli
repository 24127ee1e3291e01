(** Monotonic clock (CLOCK_MONOTONIC via a C stub).

    Protocol v5 [Health] replies carry the serving process's uptime in
    monotonic nanoseconds; a router detects a restarted shard by the
    uptime going backwards between polls.  Request deadlines, serve
    times and the load generator's round trips run on it too.  Wall
    clocks cannot do this — they step under NTP. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed point (process-independent
    epoch, never goes backwards). *)
