(** Annotated sum-product evaluation over whole semiring factors.

    A factor is a set of tuples carrying semiring values; the base atoms
    of a CQAP become factors via {!of_relation} (annotations default per
    {!Semiring.default_annot}), an access request becomes a factor of
    [one]s, and the aggregate is the semiring sum over the flat join of
    the product of annotations.  {!table} precomputes it for every
    access tuple by a semijoin reduction sweep followed by greedy
    variable elimination, so the join is never materialized; {!brute}
    is the materialize-then-fold oracle.  Both read every row of every
    factor: a single request is answered online from its own rows by
    [Stt_relation.Live.agg_from] instead.  All operations charge the
    {!Stt_relation.Cost} counters (scan per input row, probe per lookup,
    tuple per output row). *)

open Stt_relation

type factor

val of_relation : Semiring.kind -> Relation.t -> factor
(** Annotations are read from the relation's annotation column, falling
    back to {!Semiring.default_annot}. *)

val table : Semiring.kind -> factor list -> access:Schema.t -> int Tuple.Tbl.t
(** Full offline elimination keeping the access variables: a map from
    access tuple (in [access] column order) to its aggregate, containing
    exactly the access tuples with at least one derivation. *)

val brute : Semiring.kind -> factor list -> q_a:Relation.t -> int
(** Materialize the flat join (request included), then ⊕-fold — the
    differential oracle and the materialize-then-fold cost baseline. *)
