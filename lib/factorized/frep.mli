(** Factorized d-representations of relations (Deep & Koutris,
    "Compressed Representations of Conjunctive Query Results").

    A relation is stored as a DAG over a fixed variable order: each
    inner node is a union of singleton runs — an ascending array of
    values for one variable, each value the product of that singleton
    with one shared child subtree — and structurally identical subtrees
    are hash-consed, so a suffix set shared by many prefixes is stored
    once.  {!size} counts the stored singletons of the DAG (one per
    [(value, child)] edge), the same unit as flat stored tuples: a flat
    set of [n] rows costs [n] stored tuples, its d-representation costs
    [size] ≤ [n × arity] and often far less, and the compression ratio
    [rows / size] is how many flat rows one budget unit buys.

    Enumeration is constant-delay: a DFS of the DAG emits each tuple
    with O(arity) pointer chasing between outputs and no dependence on
    the relation's cardinality.

    {b Cost model.}  [factorize] ({!of_relation}) charges one [scan]
    per input row — the one-time compression cost, counted under
    whatever counting mode the caller runs.  {!enum_iter} charges one
    [probe] for the call plus one [tuple] per emitted row (the honest
    delay charge — exactly what decoding a cached answer of the same
    cardinality costs).  {!probe_iter}/{!probe_mem}/{!semijoin}/{!join}
    mirror {!Stt_relation.Index} charge-for-charge (one probe per
    probed key; output materialization is charged by the consumer's
    [Relation.add]), so swapping a flat index for a d-representation
    never changes an answer's op count. *)

open Stt_relation

type t

val of_relation : ?prefix:Schema.var list -> Relation.t -> t
(** Factorize a relation.  [prefix] (default [[]]) lists variables that
    must form the leading levels of the variable order, in the given
    order — probing ({!probe_iter}, {!semijoin}, {!join}) keys on
    exactly these.  The remaining variables are ordered by ascending
    distinct-value count (ties by variable id), a deterministic
    heuristic that puts slowly-varying columns near the root where
    sharing pays most.  Charges one [scan] per input row.  Raises
    [Invalid_argument] if [prefix] contains duplicates or variables
    outside the schema. *)

val schema : t -> Schema.t
(** The full schema, in DAG level order: [prefix] first. *)

val key_vars : t -> Schema.var list
(** The probe key — the [prefix] given to {!of_relation}. *)

val rows : t -> int
(** Logical cardinality of the represented relation. *)

val size : t -> int
(** Stored singletons in the DAG: Σ over distinct nodes of their run
    length.  The space this structure is accounted at. *)

val enum_iter : t -> (Tuple.t -> unit) -> unit
(** Enumerate every tuple in ascending level-order.  The callback
    receives a {e scratch} buffer reused between calls (copy it to keep
    it), like [Index.probe_iter]'s flat rows.  Charges one probe plus
    one tuple per row. *)

val probe_iter : t -> Tuple.t -> (Tuple.t -> unit) -> unit
(** [probe_iter t key f] enumerates the tuples whose prefix equals
    [key] (arity = [List.length (key_vars t)]), full tuples in the
    scratch-buffer convention of {!enum_iter}.  Charges one probe for
    the descent, nothing per row — the consumer charges what it
    materializes, exactly like [Index.probe_iter]. *)

val probe_mem : t -> Tuple.t -> bool
(** Does any tuple carry this prefix?  One probe; O(prefix) time. *)

val semijoin : Relation.t -> t -> Relation.t
(** [semijoin rel t] keeps the rows of [rel] whose projection onto
    [key_vars t] appears in [t] — charge-identical to
    [Index.semijoin]. *)

val join : Relation.t -> t -> Relation.t
(** [join rel t] extends each row of [rel] with the suffix values under
    its key, output schema [rel ∪ schema t] — charge-identical to
    [Index.join].  Every variable of [key_vars t] must be in [rel]'s
    schema. *)

val to_relation : t -> Relation.t
(** Materialize the represented relation (schema in level order).
    Cost-free: a validation/export convenience, not an online path. *)

(** {1 Wire codec}

    A versioned binary layout for answer-cache values.  Nodes are
    written children-first, so decoding validates each child reference
    against already-decoded ids; the decoder re-derives [rows] and
    [size] from the DAG and rejects any mismatch, so a decoded value
    that loads at all is structurally sound. *)

val encode : t -> string

val decode : string -> t
(** Inverse of {!encode}; raises [Stt_store.Codec.Corrupt] on any
    structural violation or trailing bytes. *)
