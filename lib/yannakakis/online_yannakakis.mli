(** Online Yannakakis for PMTDs (Theorem 3.7 and Appendix A).

    Given the S-views of a PMTD, [preprocess] stores them with hash
    indexes (and runs the bottom-up semijoin pass over SS-edges) in space
    linear in their size.  [answer] then computes the free-connex acyclic
    CQ

    {v ψ(x_H) ← Q_A ∧ ⋀_{t∈M} S_{v(t)} ∧ ⋀_{t∉M} T_{v(t)} v}

    in time [O(max_t |T_{v(t)}| + |Q_A| + |ψ|)] — crucially with no
    dependence on the size of the S-views, which are only ever probed
    through their indexes. *)

open Stt_relation
open Stt_decomp

type preprocessed

val preprocess :
  ?reduce:bool ->
  ?factorize:bool ->
  Pmtd.t ->
  s_views:(int -> Relation.t) ->
  preprocessed
(** [s_views node] must supply a relation over schema [v(node)] (any
    variable order) for every materialized node.  [reduce] (default
    [true]) runs the bottom-up SS semijoin pass — a pure space
    optimization that {!answer} never depends on; pass [false] for
    engines that will maintain the views incrementally, since reduced
    views cannot absorb single-tuple deltas additively.  [factorize]
    (default [true]) allows storing a view as a d-representation keyed
    on its link variables when {!Stt_factorized.Config} deems it
    eligible; pass [false] (like [reduce:false], for maintainable
    engines) to force flat indexes — factorized views cannot absorb
    ±1-row deltas either. *)

val space : preprocessed -> int
(** Total stored singletons across S-views: flat views count one per
    tuple, factorized views count {!Stt_factorized.Frep.size}. *)

val logical_rows : preprocessed -> int
(** Total {e flat} rows the stored S-views represent, regardless of
    holder — [space] ≤ [logical_rows], with equality when nothing is
    factorized. *)

val factorized_views : preprocessed -> (int * Stt_factorized.Frep.t) list
(** The views currently held compressed, sorted by node id. *)

(** {1 Incremental maintenance}

    Single-row deltas against the stored S-views, keeping relation,
    index and {!space} in lockstep.  Only meaningful on views built with
    [~reduce:false] (unreduced): adding a row to a semijoin-reduced view
    could not account for previously reduced-away parent rows. *)

val materialized_nodes : preprocessed -> int list
(** Nodes with a stored S-view, in tree order. *)

val insert_view_tuple : preprocessed -> int -> Tuple.t -> bool
(** [insert_view_tuple t node row] adds [row] (in the view's schema
    order) to the node's S-view and its link index; [false] if already
    present. *)

val delete_view_tuple : preprocessed -> int -> Tuple.t -> bool
(** Remove a row from the node's S-view and link index; [false] if it
    was not present. *)

(** {1 Snapshot codec} *)

val write : Stt_store.Codec.encoder -> preprocessed -> unit
(** Each materialized node's stored (possibly reduced) S-view relation,
    by node id, then the increasing list of nodes held as
    d-representations.  Link indexes and d-reps are not written. *)

val read : Pmtd.t -> Stt_store.Codec.decoder -> preprocessed
(** Inverse of {!write}: rebuilds each link index with [Index.build] and
    each d-rep with [Frep.of_relation ~prefix:(link variables)], as
    {!preprocess} does, so the loaded holders and {!space} equal the
    saved ones.  Raises [Stt_store.Codec.Corrupt] on a node out of
    range, not materialized, repeated or missing, a view whose schema
    differs from the node's, or a d-rep node list that is not an
    increasing list of stored views. *)

val answer :
  preprocessed -> t_views:(int -> Relation.t) -> q_a:Relation.t -> Relation.t
(** [t_views node] must supply a relation over schema [v(node)] for every
    non-materialized node; [q_a] is the access request over schema [A]
    (in ascending variable order or any order containing exactly A).
    Returns ψ over the head variables. *)
