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
  ?thawed:bool -> Pmtd.t -> s_views:(int -> Relation.t) -> preprocessed
(** [s_views node] must supply a relation over schema [v(node)] (any
    variable order) for every materialized node; the result owns it.
    By default the views are frozen: the bottom-up SS semijoin pass runs
    (a pure space optimization that {!answer} never depends on) and a
    view may be stored as a d-representation keyed on its link
    variables when {!Stt_factorized.Config} deems it eligible.
    [~thawed:true] skips both and holds every view unreduced as a
    {!Live.t} indexed on its link variables — the form that absorbs
    single-row deltas, for engines that maintain their views. *)

val space : preprocessed -> int
(** Total stored singletons across S-views: flat views count one per
    tuple, factorized views count {!Stt_factorized.Frep.size}. *)

val logical_rows : preprocessed -> int
(** Total {e flat} rows the stored S-views represent, regardless of
    holder — [space] ≤ [logical_rows], with equality when nothing is
    factorized. *)

val has_empty_view : preprocessed -> bool
(** Does some stored view hold no row?  Then {!answer} adds nothing for
    any request: the answer joins every view, and a view it drops from
    the join was first semijoined into its parent, so one empty view
    empties ψ — the same holds for a T-view that is empty. *)

val factorized_views : preprocessed -> (int * Stt_factorized.Frep.t) list
(** The views currently held compressed, sorted by node id. *)

val live_views : preprocessed -> (int * Live.t) list
(** The views held flat, by node in tree order: every stored view of a
    thawed structure.  A maintaining engine writes them with
    {!Live.add}/{!Live.remove}, rows in the view's schema order
    (ascending variables), which patches the link index {!answer}
    probes; a write to a reduced (frozen) view could not account for
    the rows the semijoin pass removed. *)

(** {1 Snapshot codec} *)

val write : Stt_store.Codec.encoder -> preprocessed -> unit
(** Each materialized node's stored (possibly reduced) S-view relation,
    by node id, then the increasing list of nodes held as
    d-representations.  Link indexes and d-reps are not written. *)

val read : Pmtd.t -> Stt_store.Codec.decoder -> preprocessed
(** Inverse of {!write}: rebuilds each flat view as a {!Live.t} with its
    link index and each d-rep with [Frep.of_relation ~prefix:(link
    variables)], as {!preprocess} does, so the loaded holders and
    {!space} equal the saved ones.  Raises [Stt_store.Codec.Corrupt] on
    a node out of range, not materialized, repeated or missing, a view
    whose schema differs from the node's, or a d-rep node list that is
    not an increasing list of stored views. *)

val answer :
  ?into:Relation.t ->
  preprocessed ->
  t_views:(int -> Relation.t) ->
  q_a:Relation.t ->
  Relation.t
(** [t_views node] must supply a relation over schema [v(node)] for every
    non-materialized node; it is only read, so several PMTDs may share
    one.  [q_a] is the access request over schema [A] (in ascending
    variable order or any order containing exactly A).  Adds ψ to
    [into], a relation over the head variables (by default a fresh one,
    in ascending order), and returns [into]: one scan per row of the
    final join, one tuple per new row of [into]. *)
