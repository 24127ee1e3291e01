(** Persistent hash indexes over relations.

    An index maps a key — the values of a chosen subset of the schema's
    variables — to the matching tuples.  Tuples are stored row-major in
    one contiguous int array, grouped by key and sorted by
    {!Tuple.compare} within a key; the hash table maps each key to a
    contiguous (offset, length) range, so bucket iteration is a
    flat-array walk with zero allocation, {!count} is O(1) and {!remove}
    finds a row by binary search.  Building is free of online cost (it
    happens during preprocessing); probing charges one {!Cost} probe per
    lookup. *)

type t

val build : Relation.t -> Schema.var list -> t
(** [build rel key_vars] indexes [rel] on [key_vars]. *)

val probe_iter : t -> Tuple.t -> (int array -> int -> unit) -> unit
(** [probe_iter t key f] calls [f src base] once per tuple matching the
    key tuple [key] (values in [key_vars] order), whose values live at
    [src.(base + k)] for [k < arity].  On the (common) overlay-free
    index this walks the flat backing array and allocates nothing.
    [src] aliases index internals: read the row inside [f], do not
    stash [src]. *)

val count : t -> Tuple.t -> int
(** Number of matching tuples (degree of the key value).  O(1): the
    bucket length is stored, not recomputed. *)

(** {1 Incremental maintenance}

    {!Live.add} and {!Live.remove} are the only callers of {!insert} and
    {!remove}, so an index always equals the rows of its live relation.
    Mutations land in a small overlay (rows added since the last
    compaction, and a per-row bitmap marking deleted flat rows); every
    read path merges the overlay transparently, skips a deleted row by
    its slot without copying it, and keeps its zero-allocation fast path
    while the overlay is empty.  Once the overlay outgrows a fraction of the
    flat storage it is folded back into fresh flat arrays (an uncounted
    preprocessing-style pass, amortized O(1) per mutation). *)

val insert : t -> Tuple.t -> unit
(** Add one tuple, which must be absent: the row goes straight to the
    overlay, unchecked, so inserting a present tuple would index it
    twice.  One {!Cost} probe charged.  Raises [Invalid_argument] on
    arity mismatch. *)

val remove : t -> Tuple.t -> bool
(** Delete one tuple; [false] if it was absent.  A row of the flat
    storage is found by binary search of its sorted bucket.  One {!Cost}
    probe charged.  Raises [Invalid_argument] on arity mismatch. *)

val semijoin : Relation.t -> t -> Relation.t
(** [semijoin rel idx] keeps the tuples of [rel] whose key matches the
    index — cost [O(|rel|)], independent of the indexed relation's size.
    The index key variables must all appear in [rel]'s schema. *)

val join : Relation.t -> t -> Relation.t
(** [join rel idx] probes the index once per tuple of [rel] and extends
    with the matching tuples — cost [O(|rel| + output)]. *)

val join_into : ?limit:int -> Relation.t -> t -> into:Relation.t -> int
(** [join_into rel idx ~into] adds to [into] the projection of
    [rel ⋈ idx] onto [into]'s schema, without materializing the join:
    one scan and one probe per tuple of [rel], one scan per match and
    one tuple per new row of [into].  Every variable of [into] must be
    in [rel] or in the indexed relation.  Returns the number of matches
    visited; past [limit] matches (default unbounded) it stops and
    returns [limit + 1], leaving the rows of the earlier matches in
    [into]. *)
