(** Executable 2-phase PANDA (2PP, Appendix D) for one 2-phase
    disjunctive rule.

    [build] solves the joint Shannon-flow LP at the given budget, reads
    the split pairs with positive dual and the primal [h_S] values, and
    partitions each guard relation into heavy/light at the implied degree
    threshold.  Each of the (at most [2^p]) subproblems is then either

    - {e stored}: the smallest S-target projection of the subproblem's
      body join fits in the budget and is materialized, or
    - {e delegated}: the subproblem is kept as an index entry; [online]
      evaluates its cheapest T-target (chosen by polymatroid bound under
      the subproblem's measured degree constraints) against each access
      request.

    Differences from full PANDA are deliberate and documented in
    DESIGN.md: models place every tuple into a single best target per
    subproblem, and evaluation uses semijoin-reduction plus greedy joins
    with early projection rather than a proof-sequence interpreter. *)

open Stt_relation
open Stt_hypergraph

type t

val build : ?counted:bool -> Rule.t -> db:Db.t -> budget:int -> t
(** Raises [Failure] if the rule has no T-targets and its S-targets do
    not actually fit in the budget (the rule is impossible at this
    budget; the worst-case LP prediction alone does not fail the build —
    real data often fits well below the bound).

    [counted] (default [false]) runs the build's data work — split-tree
    expansion and subproblem joins — under cost counting instead of the
    usual preprocessing silence, so benchmarks can compare maintenance
    deltas against an honestly op-counted rebuild. *)

val s_targets : t -> (Varset.t * Relation.t) list
(** Materialized (partial) S-target relations, one per target schema
    (schema column order = ascending variable ids). *)

val space : t -> int
(** Tuples across all stored S-targets. *)

val delegated_subproblems : t -> int
val stored_subproblems : t -> int
(** Number of heavy/light subproblems whose best S-target fit the budget
    and was materialized.  Every one of them contributed at most
    [budget] tuples to {!space} at the moment it was stored, so
    [space t <= stored_subproblems t * budget] — the budget-implied
    space bound checked by the differential test harness. *)

val online : t -> q_a:Relation.t -> (Varset.t * Relation.t) list
(** T-target relations computed from the delegated subproblems for this
    access request.  Respects the global cost counters. *)

val rule : t -> Rule.t

(** {1 Incremental maintenance}

    A freshly built structure keeps its maintenance state: the live base
    relation per atom and the heavy/light split tree with per-key degree
    counters.  [apply_delta] routes a single-tuple base delta through the
    tree — re-classifying exactly the keys whose degree crossed the
    build-time threshold — and patches each affected subproblem in
    place: delegated plans get their step indexes updated, stored
    subproblems get a pinned delta join (inserts) or a last-witness
    check (deletes) against the combo's leaves.  Structures loaded from
    a snapshot are static replicas: they answer but do not maintain. *)

val supports_maintenance : t -> bool
(** [true] for built structures, [false] for {!read} ones. *)

val apply_delta :
  t -> rel:string -> tuple:Tuple.t -> add:bool -> (Varset.t * Tuple.t * bool) list
(** Apply one base-tuple delta to every atom named [rel].  Returns the
    resulting stored-target (S-view) row changes as
    [(target, row, added?)], rows in ascending-variable order — the
    engine feeds these to the Yannakakis views.  Redundant deltas
    (inserting a present tuple, deleting an absent one) are no-ops.
    Raises [Failure] on arity mismatch, on a static replica, or — like
    {!build} — when a newly non-empty subproblem is impossible at the
    build budget; a [Failure] mid-delta leaves the structure
    inconsistent, so callers should treat it as fatal and rebuild. *)

val base_mem : t -> rel:string -> Tuple.t -> bool
(** Is the tuple in the base relation of some atom named [rel]?  Always
    [false] on static replicas. *)

val base_relations : t -> (Cq.atom * Relation.t) list
(** The live base relation per atom (empty on static replicas).  Treat
    as read-only; mutate only through {!apply_delta}. *)

val stored_mem : t -> Varset.t -> Tuple.t -> bool
(** Is [row] (ascending-variable order) currently in this structure's
    stored relation for the given S-target? *)

(** {1 Snapshot codec}

    A built structure is pure data — stored S-target relations plus the
    delegated subproblems' index-backed plans — so it round-trips
    without re-running the LP, the heavy/light splits or the plan
    search. *)

val write : Stt_store.Codec.encoder -> t -> unit
(** The stored subproblem count, the stored S-target relations sorted
    by target, then per delegated subproblem (in build order) its
    T-target, cap, and probe and safe plans as (index, kept variables)
    steps.  The maintenance state is not written. *)

val read : Rule.t -> Stt_store.Codec.decoder -> t
(** Inverse of {!write}: a static replica ({!supports_maintenance} is
    [false]) whose [space] is recomputed from the stored relations.
    Raises [Stt_store.Codec.Corrupt] on a target outside the query's
    variables or a stored relation whose schema differs from its
    target. *)
