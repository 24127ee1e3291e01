(** The one clock everything times with: CLOCK_MONOTONIC via a C stub.

    Obs spans, request deadlines and serve times, the load generator's
    round trips, the CLI's wall times and the uptime that protocol v5
    [Health] replies carry all run on it.  A router detects a restarted
    shard by that uptime going backwards between polls.  Wall clocks
    cannot do this — they step under NTP. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed point (process-independent
    epoch, never goes backwards). *)

val now_s : unit -> float
(** {!now_ns} in seconds — differences of two readings are elapsed
    wall time. *)
