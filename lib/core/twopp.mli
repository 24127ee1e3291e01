(** Executable 2-phase PANDA (2PP, Appendix D) for one 2-phase
    disjunctive rule.

    [build] solves the joint Shannon-flow LP at the given budget, reads
    the split pairs with positive dual and the primal [h_S] values, and
    partitions each guard relation into heavy/light at the implied degree
    threshold.  The subproblems are the combinations of those parts, one
    part per atom.  Each of the (at most [2^p]) subproblems is then
    either

    - {e stored}: the smallest S-target projection of the subproblem's
      body join fits in the budget and is materialized, or
    - {e delegated}: its cheapest T-target (chosen by polymatroid bound
      under the subproblem's measured degree constraints) is evaluated
      against each access request ({!run_into}), through a plan whose
      steps probe the subproblem's leaves ({!Live.index}), into the
      request's accumulator for that target.  Subproblems whose plans
      are step for step equal share one plan.

    Differences from full PANDA are deliberate and documented in
    DESIGN.md: models place every tuple into a single best target per
    subproblem, and evaluation uses semijoin-reduction plus greedy joins
    with early projection rather than a proof-sequence interpreter. *)

open Stt_relation
open Stt_hypergraph

type t

val build :
  ?counted:bool -> Rule.t -> base:(Cq.atom * Live.t) list -> budget:int -> t
(** [base] holds one live relation per atom of the rule's query (the
    engine's copy, shared by every rule); the guide LP's [|D|] is the
    largest of them.  The build only reads [base], so rules can be built
    in parallel over one copy, and the leaves of atoms that no split
    touches are the base relations themselves: the same {!Live.t}
    values, so a delta patches their indexes once.  The heavy and light
    leaves of a split are live relations of their own.  Each delegated
    plan step reads its leaf's index on the step's key, built here, so
    steps of any rule that probe one leaf on one key share one index.

    Raises [Failure] if the rule has no T-targets and its S-targets do
    not actually fit in the budget (the rule is impossible at this
    budget; the worst-case LP prediction alone does not fail the build —
    real data often fits well below the bound).

    Each atom has one split tree: a split partitions the atom's
    relation, and a later split of the same atom partitions each part
    of the earlier one, so every split is made once per atom, however
    many other atoms the rule splits.  The subproblems are every choice
    of one leaf per atom, with their atoms in query order.

    [counted] (default [false]) runs the build's data work — split-tree
    expansion and subproblem joins — under cost counting instead of the
    usual preprocessing silence, so benchmarks can compare maintenance
    deltas against an honestly op-counted rebuild. *)

val s_targets : t -> (Varset.t * Relation.t) list
(** Materialized (partial) S-target relations, one per target schema
    (schema column order = ascending variable ids). *)

val space : t -> int
(** Tuples across all stored S-targets. *)

val stored_subproblems : t -> int
(** Number of heavy/light subproblems whose best S-target fit the budget
    and was materialized.  Every one of them contributed at most
    [budget] tuples to {!space} at the moment it was stored, so
    [space t <= stored_subproblems t * budget] — the budget-implied
    space bound checked by the differential test harness. *)

type plan
(** The online plan of a delegated subproblem: a greedy probe plan, a
    safe plan and the probe plan's abort cap, into one T-target. *)

val plans : t -> plan list
(** The distinct plans of the delegated subproblems, in build order,
    then in the order deltas delegated more.  A subproblem whose
    T-target, probe plan and safe plan equal an earlier one's — the
    same leaves ([==]) in the same order on the same keys, keeping the
    same variables — adds no plan: a plan joins only the leaves of its
    local atoms, so the two would write the same rows.  A snapshot
    holds these plans only. *)

val plan_target : plan -> Varset.t

val run_into : plan -> q_a:Relation.t -> into:Relation.t -> unit
(** Evaluate the plan for this access request and add its rows to
    [into], the accumulator of its T-target (a relation over the
    target, any column order), which other plans and rules may share.
    The greedy plan runs with an abort cap on each step's match count:
    the plan's cap times [|q_a|], saturating at [max_int]
    ({!sat_mul}).  When a step passes the cap it bumps the
    [twopp.plan_abort] Obs counter and reruns the safe plan into the
    same accumulator, which keeps the rows already written — all of
    them target rows.  Plan steps that keep every variable of their
    join make no copy, and the last step joins and projects straight
    into the accumulator ({!Stt_relation.Index.join_into}).  Charges
    the global cost counters: one probe per index lookup, one scan per
    row visited, one tuple per new row of an intermediate or an
    accumulator. *)

val sat_mul : int -> int -> int
(** [sat_mul a b] is [a * b] for non-negative [a] and [b], or [max_int]
    when the product would pass it.  A plan's cap is
    [sat_mul 2 (1 + c)] for the safe plan's worst-case estimate [c],
    which stays below [max_int] and saturates at [max_int / 2]; a
    wrapped cap would be negative, abort every greedy plan at its first
    step and make the snapshot writer reject it. *)

val online : t -> q_a:Relation.t -> (Varset.t * Relation.t) list
(** {!run_into} of every plan into fresh accumulators, one per
    T-target, over the target's variables in ascending order. *)

val rule : t -> Rule.t

(** {1 Incremental maintenance}

    A freshly built structure keeps its maintenance state: each atom's
    heavy/light split tree with per-key degree counters, and the
    subproblems over the trees' leaves.  The base relations belong to
    the caller.  [apply_delta] routes a single-tuple base delta through
    its own atom's tree only — re-classifying exactly the keys whose
    degree crossed the build-time threshold — and writes each leaf it
    reaches with {!Live.add}/{!Live.remove}, which patches every index
    of the leaf, the delegated plans' step indexes included.  Each leaf
    change then goes to every subproblem with that leaf, in order: a
    stored one patches its rows with a delta join from the pinned tuple
    ({!Live.join_from}, inserts) or a last-witness check
    ({!Live.exists}, deletes) against its other leaves, both run as
    index probes, and an empty-at-build one that the change fills is
    decided on its leaves as they stand after the whole delta.  Structures loaded from a snapshot
    are static replicas: they answer but do not maintain. *)

val supports_maintenance : t -> bool
(** [true] for built structures, [false] for {!read} ones. *)

val check_splits : t -> (unit, string) result
(** Recompute the splits from the base relations and compare: for every
    atom, the leaves hold exactly what splitting the atom's base
    relation now would give — each tuple in one leaf, on the side of
    its key's current distinct-y degree at every split above it — and
    each split's y counts, x degrees and member lists agree with the
    rows of its input.  [Error] names the atom, the split depth and
    what disagrees.  Uncounted, and linear in the base relations per
    split level: a test-time check of what {!apply_delta} maintains.
    [Ok ()] on a static replica, which keeps no splits. *)

val apply_delta :
  t -> atom:Cq.atom -> tuple:Tuple.t -> add:bool -> (Varset.t * Tuple.t * bool) list
(** Route one effective base-tuple delta of [atom] (physically one of
    the atoms of the base passed to {!build}) through that atom's split
    tree.
    Returns the resulting stored-target (S-view) row changes as
    [(target, row, added?)], rows in ascending-variable order — the
    engine feeds these to the Yannakakis views.  A newly non-empty
    subproblem that is delegated adds its plan to {!plans} unless an
    equal one is there; nothing else changes {!plans} after the build,
    since a decision never reverts.

    Precondition: the delta is effective and the caller has already
    written it to [atom]'s base relation.  When several atoms share a
    relation name, the caller writes and routes them one at a time in
    query order, so each atom's delta joins see the earlier atoms
    updated and the later ones not.  No arity or membership check is
    made here.  Raises [Failure] on a static replica, or — like
    {!build} — when a newly non-empty subproblem is impossible at the
    build budget; a [Failure] mid-delta leaves the structure
    inconsistent, so callers should treat it as fatal and rebuild. *)

val stored_mem : t -> Varset.t -> Tuple.t -> bool
(** Is [row] (ascending-variable order) currently in this structure's
    stored relation for the given S-target? *)

(** {1 Snapshot codec}

    A built structure is pure data — stored S-target relations plus the
    delegated subproblems' plans over their leaves — so it round-trips
    without re-running the LP, the heavy/light splits or the plan
    search. *)

val write : Stt_store.Codec.encoder -> t -> unit
(** The stored subproblem count, the stored S-target relations sorted
    by target, each distinct leaf the delegated plans read (its
    relation), once, in first-use order, then per plan ({!plans}, in
    order) its T-target, cap, and probe and safe plans as ordered leaf
    numbers.  A step's key and kept variables follow from
    the leaf order and are not written, nor is the maintenance
    state. *)

val read : Rule.t -> Stt_store.Codec.decoder -> t
(** Inverse of {!write}: a static replica ({!supports_maintenance} is
    [false]) whose leaves are live relations and whose plan steps are
    rebuilt by the build's own step planner; [space] is recomputed from
    the stored relations, and a plan equal to an earlier one (the same
    target and the same leaf numbers in both plans) is dropped.  Raises
    [Stt_store.Codec.Corrupt] on a target outside the query's
    variables, a stored relation whose schema differs from its target,
    a delegated T-target that is not one of the rule's, a leaf whose
    variables match no atom, a leaf number out of range, or a plan
    whose leaves plus the access variables do not cover its
    T-target. *)
