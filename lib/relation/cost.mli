(** Machine-independent cost accounting for the online phase.

    The paper measures online answering time [T] up to polylogarithmic
    factors; at laptop scale the reliable observable is the number of
    data-structure operations, not wall-clock time.  Every hash probe,
    tuple materialization and tuple scan performed by {!Stt_relation} and
    by the index structures built on top of it is charged to a counter.
    Benchmarks reset the counter before the online phase and read it
    afterwards.

    Counters are {b per-domain} (via [Domain.DLS]): parallel workers in
    the {!Pool} each charge their own domain's counters without
    contention, and the pool {!merge}s worker snapshots back into the
    spawning domain in task order — so the totals observed by the parent
    are bit-identical to a sequential run. *)

type snapshot = {
  probes : int;  (** hash-table lookups (index probes, semijoin tests) *)
  tuples : int;  (** tuples materialized into intermediate or output views *)
  scans : int;   (** tuples visited by iteration *)
}

val zero : snapshot
(** The all-zero snapshot. *)

val reset : unit -> unit
(** Zero the current domain's counters. *)

val snapshot : unit -> snapshot
(** Read the current domain's counter values. *)

val total : snapshot -> int
(** [probes + tuples + scans] — the scalar "intrinsic time" we report. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference. *)

val add : snapshot -> snapshot -> snapshot
(** Per-field sum. *)

val merge : snapshot -> unit
(** [merge d] adds [d] into the current domain's counters, regardless of
    the counting flag — the charges in [d] were already filtered by the
    worker that accumulated them.  {!Pool.map} calls this in task order
    when it aggregates parallel workers. *)

val charge_probe : unit -> unit
val charge_tuple : unit -> unit
val charge_scan : unit -> unit

val charge_tuples : int -> unit
val charge_scans : int -> unit
(** [n] charges at once, for an operator that copies a whole table
    instead of visiting and writing its tuples one by one. *)

val counting : unit -> bool
(** Whether charges are currently recorded in this domain.  Defaults to
    [true]; freshly spawned pool workers inherit the spawner's flag. *)

val set_counting : bool -> unit
(** Set the current domain's counting flag (e.g. during preprocessing,
    whose time the paper does not optimize). *)

val with_counting : bool -> (unit -> 'a) -> 'a
(** [with_counting flag f] runs [f] with the counting flag set to
    [flag], restoring the previous value afterwards (also on
    exceptions). *)

val scoped : (unit -> 'a) -> 'a * snapshot
(** [scoped f] runs [f] under the {e current} counting mode and returns
    the costs charged while it ran, measured as a snapshot difference —
    the counters are never reset, so scopes nest arbitrarily and
    observability code can attach per-span costs without perturbing an
    enclosing measurement. *)

val measure : (unit -> 'a) -> 'a * snapshot
(** [measure f] is {!scoped} with counting forced on: it returns the
    costs [f] incurred.  Like {!scoped} it is re-entrant — it does not
    reset the counters, so a [measure] nested inside another (or inside
    [with_counting false]) neither loses nor double-frees counts, and an
    exception from [f] restores the counting flag. *)
