(** Exhaustive enumeration of tree decompositions and PMTDs for small
    queries.

    Tree decompositions are generated from elimination orderings of the
    access CQ's hypergraph (every decomposition is dominated by one of
    this form), closed under the Section 6.3 subtree-merge operation and
    under re-rooting, then deduplicated.  PMTDs are generated over those
    decompositions with every descendant-closed materialization set, kept
    only if non-redundant and finally reduced to the minimal elements of
    the domination order — this reproduces, e.g., exactly the five PMTDs
    of Figure 2 for the 3-reachability CQAP. *)

open Stt_hypergraph

val pmtds : ?max_pmtds:int -> Cq.cqap -> Pmtd.t list
(** Non-redundant, mutually non-dominating PMTDs, deduplicated by view
    signature.  Raises [Failure] if more than [max_pmtds] (default 64)
    survive — a guard against combinatorial blow-up on large queries. *)

val induced : Cq.cqap -> Td.t -> Pmtd.t list
(** The induced set of Section 6.3 for one decomposition: every antichain
    of nodes becomes a materialization set after merging each chosen
    node's subtree into it. *)
