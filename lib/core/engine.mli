(** End-to-end CQAP index: the general framework of Section 4.

    [build] generates the 2-phase disjunctive rules from the PMTD set,
    runs 2PP preprocessing for each rule under the space budget, unions
    same-schema S-targets into per-PMTD S-views and hands them to Online
    Yannakakis.  The answer of the access CQ is [⋃_i ψ_i], each PMTD's
    free-connex CQ over its S-views and T-views; [answer] evaluates only
    the part of it that can hold rows ({!answering_pmtds}).  It keeps one
    accumulator relation per T-target those PMTDs read: every delegated
    plan into that target writes its rows there ({!Twopp.run_into}),
    and every answering PMTD whose T-node has those variables reads it
    as that T-view.  Online Yannakakis evaluates each answering PMTD's
    ψ_i into one answer relation — the exact result of the access
    CQ. *)

open Stt_relation
open Stt_hypergraph
open Stt_decomp

type t

val build : ?counted:bool -> Cq.cqap -> Pmtd.t list -> db:Db.t -> budget:int -> t
(** Raises [Failure] if some generated rule is impossible at this budget
    (only when a rule has no T-targets).  [counted] (default [false])
    charges the build's data work to the cost counters — preprocessing
    is normally silent; benchmarks opt in to compare incremental
    maintenance against an op-counted rebuild. *)

val build_auto :
  ?counted:bool -> ?max_pmtds:int -> Cq.cqap -> db:Db.t -> budget:int -> t
(** [build] over the automatically enumerated PMTD set. *)

val space : t -> int
(** Intrinsic space in stored singletons: flat S-views count one per
    tuple, factorized S-views count their d-representation size
    ({!Stt_factorized.Frep.size}).  Does not include the answer cache —
    see {!cache_space}.  Like {!pmtds}, {!per_pmtd_space},
    {!factorized_views} and {!materialized_rows}, it covers what the
    engine holds: every PMTD's views for a built engine, only the
    {!answering_pmtds}' for one {!load}ed from a snapshot. *)

val materialized_rows : t -> int
(** Total {e flat} rows the stored S-views represent, regardless of
    holder: [space t] ≤ [materialized_rows t], and the gap is what
    factorization bought. *)

val factorized_views : t -> int
(** Number of S-views currently held as d-representations. *)

val answer : t -> q_a:Relation.t -> Relation.t
(** Result of the access CQ over the head variables: {!answer_batch} of
    the one request.  Runs the {!plans_per_answer} plans and Online
    Yannakakis over the {!answering_pmtds}.  Cost counters observe only
    the online work: one probe per lookup, one scan per row visited and
    one tuple per new row of a plan intermediate, a T-target
    accumulator, an Online Yannakakis relation or the answer; no
    T-target row is copied on its way from its plan to Online
    Yannakakis.  With a cache attached the request is canonicalized and
    looked up first: a hit costs one probe plus one tuple per answer
    row and returns a bit-identical answer; a miss runs the 2PP online
    pipeline and offers the result for admission. *)

val answer_tuple : t -> Tuple.t -> bool
(** Boolean single-tuple access: is the access request (values of the
    access variables in ascending-id order) in the answer?  Routed
    through {!answer}, so a warm cache answers a repeated boolean
    access in O(1) probes. *)

val answer_batch : t -> Relation.t list -> (Relation.t * Cost.snapshot) list
(** Answer a batch of access requests, sharing work across the batch.
    Results come back in input order and each equals [answer t ~q_a]
    exactly.  Sharing: duplicate requests (same tuple set, any variable
    order) are evaluated once; and when the access variables all appear
    in the head, the whole batch is answered as one combined request and
    per-request answers are sliced out by semijoin.  Each snapshot is
    that request's cost share: an even split of the batch-shared work
    plus, for the first occurrence of each distinct request, its
    marginal cost; shares sum exactly to the batch total.  With a cache
    attached, unique requests are looked up first and only the misses
    are evaluated (and offered for admission); a hit's marginal is its
    lookup-and-decode cost.  Observes the batch's total online ops in
    the [engine.answer.ops] histogram. *)

val cqap : t -> Cq.cqap

val pmtds : t -> Pmtd.t list
(** The PMTDs the engine holds: those it was built over, or, for an
    engine {!load}ed from a snapshot, the {!answering_pmtds} of the
    engine that saved it. *)

val structures : t -> Twopp.t list
(** The 2PP structure of each generated rule, in rule order; empty for
    an engine {!load}ed from a snapshot, which holds only plans. *)

val per_pmtd_space : t -> (Pmtd.t * int) list
(** Stored S-view tuples per PMTD of {!pmtds} (the summands of
    {!space}), as reported in the benchmark artifacts. *)

val answering_pmtds : t -> Pmtd.t list
(** The PMTDs an answer runs Online Yannakakis over, in {!pmtds} order:
    those whose every S-view holds a row and each of whose T-node
    variable sets is the T-target of some delegated plan.  Any other
    PMTD adds nothing to any answer, since ψ joins every view and an
    empty view — stored, or a T-view no plan writes — empties it.
    Recomputed at build, load and thaw, and after a delta that
    delegates a new plan or changes whether a PMTD has an empty
    S-view.  The [engine.build] and [engine.load] spans record them as
    [answering_pmtds] (each printed by {!Pmtd.pp}), next to
    [plans_per_answer]. *)

val plans_per_answer : t -> int
(** The delegated plans an answer runs: the distinct plans
    ({!Twopp.plans}) whose T-target an answering PMTD reads.  A rule
    with none of them runs no 2PP pass. *)

val access_schema : t -> Schema.t

(** {1 Semiring aggregates}

    Sum-product answering: an aggregate request returns the semiring sum
    over all valuations of the query's variables consistent with some
    request tuple, of the semiring product of the base-atom annotations
    — COUNT and SUM without materializing the join, MIN/MAX over the
    tropical semirings.  The factors are the engine's live base
    relations, annotated with the database's weights
    ({!Db.add_weighted}) when the engine was built; [enable_agg]
    precomputes per-kind aggregate tables over the access variables
    (uncounted, like the rest of preprocessing); when the full table
    exceeds the budget, only the heaviest access keys (by derivation
    count) are kept.  A request row the table misses is answered online
    by {!Stt_relation.Live.agg_from}: a sum-product from the row over
    the live base's indexes, whose work is the row's neighbourhood.
    Aggregate answers are cached under kind-tagged keys and shipped in
    snapshots (the ["agg"] section), so replicas serve aggregates
    too. *)

val enable_agg :
  ?kinds:Stt_semiring.Semiring.kind list -> t -> db:Db.t -> budget:int -> unit
(** Build aggregate state for [kinds] (default: all) with at most
    [budget] precomputed table entries per kind.  The tables are
    computed over the live base, so calling it again after deltas
    builds exact tables for the current data.  [db] is read only by an
    engine without a base — one loaded from a snapshot without an
    "agg" section — and then becomes its base.  Raises
    [Invalid_argument] on a negative budget. *)

val answer_agg :
  t -> Stt_semiring.Semiring.kind -> q_a:Relation.t -> int * Cost.snapshot
(** The aggregate of one (possibly multi-tuple) access request, with the
    online cost actually charged: a table hit costs one probe per
    request row plus one tuple per combined row; the rows a partial
    table misses, or every row once a delta has dropped the tables, are
    answered by one counted {!Stt_relation.Live.agg_from} from those
    rows, which costs their neighbourhood in the live base rather than
    a pass over it.  Raises [Failure] when {!enable_agg} was never
    called (and the snapshot had no agg section). *)

val agg_baseline :
  t -> Stt_semiring.Semiring.kind -> q_a:Relation.t -> int * Cost.snapshot
(** Materialize-then-fold reference: flat join of the annotated factors
    (request included), then the semiring fold — same answer, counted
    cost of actually materializing.  The op-count baseline benchmarks
    and differential tests compare {!answer_agg} against. *)

val agg_enabled : t -> bool

val agg_kinds : t -> Stt_semiring.Semiring.kind list
(** Kinds with a precomputed table, in {!enable_agg} order; empty after
    a delta dropped the tables.  {!answer_agg} answers every kind
    either way: without a table, from the request's rows. *)

val agg_budget : t -> int
(** Table budget passed to {!enable_agg}; 0 when aggregates are off. *)

val agg_complete : t -> Stt_semiring.Semiring.kind -> bool
(** Whether the kind's table covers every access key with a derivation
    (i.e. the full table fit the budget). *)

val agg_table_size : t -> int
(** Total precomputed table entries across kinds — the aggregate space
    actually held, reported alongside {!space}. *)

(** {1 Incremental maintenance}

    Single-tuple base-data deltas applied without a rebuild: the delta
    is written once to the live base relation of each atom it reaches
    ({!Stt_relation.Live}, whose writes patch its indexes), routes
    through each rule's heavy/light split tree (re-classifying exactly
    the keys whose degree crossed the build threshold) into its live
    leaves, patches the affected stored subproblems by delta joins from
    the pinned tuple and last-witness checks, both run as index probes
    — a delegated plan reads its leaves' own indexes, so it needs no
    patch — and writes the resulting S-view row changes into the live
    Yannakakis views.  A cached answer is invalidated exactly when one
    of its access rows has a derivation through the delta, found by a
    witness check per entry.  The indexes the delta kernels probe are
    built on the first delta that probes them, uncounted; an engine
    that never takes a delta builds none.  All of it is
    charged to the online cost counters and to
    the [maintain.probes] / [maintain.tuples] / [maintain.scans] Obs
    counters, with per-batch totals in the [engine.maintain.ops]
    histogram.

    The first effective delta {e thaws} the engine: S-views are
    re-materialized without the SS semijoin reduction (which {!answer}
    never depends on), since reduced views cannot absorb deltas
    additively; the conversion is charged as one scan per view tuple on
    that delta.  A redundant delta (inserting a present tuple, deleting
    an absent one) touches nothing and costs nothing.

    A malformed batch — an unknown relation, an arity mismatch, or any
    delta against a snapshot-loaded engine, which is a static replica —
    raises [Failure] before anything is written, leaving the engine as
    it was.  A [Failure] that only shows while a delta is applied (a
    newly non-empty subproblem impossible at the build budget) can
    leave the engine inconsistent — treat it as fatal and rebuild. *)

val insert : t -> string -> Tuple.t -> bool * Cost.snapshot
(** [insert t rel tuple] adds [tuple] to every atom of relation [rel].
    Returns whether the delta was effective (inserting a present tuple
    is a no-op) and the maintenance cost. *)

val delete : t -> string -> Tuple.t -> bool * Cost.snapshot
(** Remove a tuple; deleting an absent tuple is a no-op. *)

val apply_deltas : t -> (string * Tuple.t * bool) list -> int * Cost.snapshot
(** Apply a batch of [(relation, tuple, insert?)] deltas in order,
    after checking all of them.  Returns how many were effective and
    the total maintenance cost. *)

val epoch : t -> int
(** Number of effective deltas absorbed since build; 0 for a pristine
    engine.  Recorded in snapshots, so replicas can tell stale from
    fresh. *)

val supports_maintenance : t -> bool
(** [true] for built engines, [false] for snapshot-loaded replicas,
    which hold no 2PP structure ({!structures} is empty). *)

(** {1 Adaptive answer cache}

    The paper trades space for time statically; an attached
    {!Stt_cache.Cache} extends the trade to runtime: hot access
    requests are answered from a bounded cache charged in stored
    tuples on top of the intrinsic budget.  Results are exact — the
    cache only ever returns what {!answer} computed — and the cache
    rides along in snapshots as an optional section. *)

val attach_cache : t -> budget:int -> unit
(** Attach a fresh cache with the given stored-tuple budget (replacing
    any current one); a non-positive budget detaches instead.  The
    cache is consulted by {!answer}, {!answer_tuple} and
    {!answer_batch}, and shared by every domain answering through this
    engine. *)

val cache : t -> Stt_cache.Cache.t option
val cache_budget : t -> int
(** Configured cache budget in stored tuples; 0 when no cache. *)

val cache_space : t -> int
(** Stored tuples currently held by the cache; 0 when no cache. *)

val cache_stats : t -> Stt_cache.Cache.stats option

val total_space : t -> int
(** [space t + cache_space t + agg_table_size t] — every stored entry
    the engine holds, in one unit; what trace JSON and the serve-net
    Health report as the full memory story. *)

(** {1 Snapshots}

    A built index is pure data, so the expensive preprocessing (LP
    solves, heavy/light splits, plan search, S-view materialization)
    can be paid for once.  {!save} writes the engine's serving plan — the
    {!answering_pmtds} with their S-views and the {!plans_per_answer}
    plans into their T-targets — to a versioned, checksummed snapshot
    file, and {!load} rebuilds an engine that answers like the one that
    was saved — same {!answer}/{!answer_batch} results and the same
    online operation counts — without touching the source database.
    The file is a replica image: it holds no split tree, stored
    S-target union or PMTD that cannot answer, so a loaded engine takes
    no delta and cannot resume a primary.  Its {!space}, {!pmtds} and
    {!per_pmtd_space} cover the answering PMTDs only: they equal the
    saving engine's wherever every PMTD holding view rows answers. *)

val format_version : int
(** Wire-format version written by {!save}, currently 4.  {!load}
    rejects any other version with [Version_skew]. *)

val save : t -> string -> (int, Stt_store.Store.error) result
(** [save t path] writes the snapshot and returns its size in bytes.
    The sections, in order: "cqap" (query and access pattern), "pmtds"
    (per answering PMTD: tree, bags and materialization flags, then
    each materialized node's S-view relation and which nodes are held
    as d-representations), "plans" (each distinct leaf the plans an
    answer runs read, once, then each plan, in run order, as its
    T-target, cap and ordered leaf numbers; {!Twopp.write_plans}) and
    "summary" (space and PMTD count).  Optional sections follow:
    "epoch" once the engine has absorbed deltas, "cache" when a cache
    is attached (budget, striping and every warm entry in LRU order)
    and "agg" when aggregates are enabled (each base relation's
    annotated rows once per relation name, then the tables).
    Serialization is canonical: saving a loaded engine reproduces the
    file byte for byte.  Records an [engine.save] span and bumps the
    [snapshot.write.bytes] counter when observability is enabled. *)

val load : string -> (t, Stt_store.Store.error) result
(** [load path] validates the file strictly — magic, format version,
    section checksums, and the structural invariants of every decoded
    component — and rebuilds the serving plan as the build does: the
    plans' leaves and flat S-views as {!Stt_relation.Live} relations
    with the indexes their plan steps and links probe, the plan steps
    with the build's own step planner, and d-representations with
    [Frep.of_relation].  Every loaded PMTD answers and every loaded
    plan runs, in the saved order.  Any defect surfaces as a typed
    error, never a crash or a silently wrong structure: a plan whose
    leaves cannot produce its T-target, a plan target that is no
    loaded PMTD's T-view, a PMTD with an empty S-view or a T-view that
    no plan writes. *)
