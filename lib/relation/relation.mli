(** In-memory set-semantics relations with cost-accounted operators.

    A relation stores a deduplicated set of tuples under a {!Schema}.  The
    operators charge the global {!Cost} counters: one [scan] per input
    tuple visited, one [probe] per hash lookup, one [tuple] per output
    tuple materialized.  Preprocessing code should wrap calls in
    [Cost.with_counting false]. *)

type t

val create : Schema.t -> t
val of_list : Schema.t -> Tuple.t list -> t
val schema : t -> Schema.t
val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> Tuple.t -> bool

val add : t -> Tuple.t -> unit
(** Insert (deduplicating).  Raises [Invalid_argument] on arity mismatch. *)

val remove : t -> Tuple.t -> bool
(** Delete one tuple; [true] iff it was present (one [scan] charged on a
    successful removal).  Raises [Invalid_argument] on arity mismatch. *)

val annotate : t -> Tuple.t -> int -> unit
(** Attach (or overwrite) a semiring annotation on a present tuple.
    Annotations live in a flat slot array plus a tuple → slot index, so
    an annotated relation costs one int cell per annotated tuple.
    Relational operators ignore annotations; only {!copy} carries them
    over, and {!remove} drops the removed tuple's entry.  Raises
    [Invalid_argument] if the tuple is not in the relation. *)

val annotation : t -> default:int -> Tuple.t -> int
(** The tuple's annotation, or [default] when the tuple was never
    annotated (or the relation has no annotation column at all). *)

val annotation_opt : t -> Tuple.t -> int option
(** The tuple's annotation, or [None] when it was never annotated —
    used where the absence itself matters (e.g. snapshot writing). *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list
val copy : t -> t
(** A relation of its own with the same tuples and annotations, copied
    table by table without hashing a tuple again; one [tuple] charged
    per tuple. *)

val equal : t -> t -> bool

val project : t -> Schema.var list -> t
(** [project t vs] projects onto the variables [vs] (in that order),
    deduplicating.  Onto all of the schema in its order it copies the
    table like {!copy}, without the annotations, and still charges one
    scan and one tuple per tuple.  Raises [Not_found] if some [v] is not
    in the schema. *)

val project_into : t -> into:t -> unit
(** [project_into t ~into] adds the projection of [t] onto [into]'s
    schema to [into]: one scan per tuple of [t], one tuple per new row.
    Raises [Not_found] if a variable of [into] is not in [t]'s
    schema. *)

exception Too_big
(** Raised by {!natural_join} and [Live.join_from] past their limit. *)

val natural_join : ?limit:int -> t -> t -> t
(** [natural_join a b] joins on the common variables (a product when
    there are none) through a one-shot hash index of [b]: one scan per
    row of [b] to build it, one scan and one probe per row of [a], one
    tuple per new output row.  Raises {!Too_big} as soon as the output holds
    more than [limit] rows (default: no limit). *)

val semijoin : t -> t -> t
(** [semijoin a b] keeps the tuples of [a] that join with [b] on their
    common variables (all of [a] if there are none and [b] is non-empty). *)

val union : t -> t -> t
(** Set union.  Schemas must be equal as variable sets; the second
    relation's tuples are reordered to the first schema. *)

val singleton : Schema.t -> Tuple.t -> t

val max_degree : t -> Schema.var list -> int
(** The largest number of tuples that agree on the given variables; 0
    when empty.  Keyed with {!Tuple.hash} (full-width FNV), not the
    polymorphic hash that samples only a prefix of wide tuples. *)

(** {1 Snapshot codec} *)

val write : Stt_store.Codec.encoder -> t -> unit
(** Schema variables, then the rows in {!Tuple.compare} order, so equal
    relations write equal bytes.  Annotations are not written. *)

val read : Stt_store.Codec.decoder -> t
(** Inverse of {!write}.  Raises [Stt_store.Codec.Corrupt] on a
    repeated schema variable. *)
