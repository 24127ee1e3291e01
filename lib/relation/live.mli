(** Live relations: a {!Relation.t} that takes deltas, with the
    persistent {!Index.t}s that every index probe of it goes through —
    from the delta path, the aggregate fallback, the steps of 2PP's
    delegated plans and the S-view links of Online Yannakakis.

    {!add} and {!remove} are the only writes, and they patch every index
    the relation has, so no index can drift from its rows.  An index is
    keyed by a set of variables and built with {!Index.build} the first
    time it is asked for — an uncounted, preprocessing-style pass — so a
    relation that is never probed never builds one.  Readers may build
    one concurrently; writers must exclude readers.

    The kernels below run joins as index probes from a few pinned
    tuples, so their work follows those tuples' neighbourhood rather
    than the size of the relations: {!join_from} and {!exists} are the
    "much smaller join" {t}⋈S of delta maintenance, and {!agg_from},
    the annotated twin of {!join_from}, is the sum-product of access
    rows that missed the aggregate table.  Each relation passed to them stands for one
    atom: its schema variables are the atom's variables. *)

type t

val of_relation : Relation.t -> t
(** Wrap a relation; the live relation owns it from now on. *)

val relation : t -> Relation.t
(** The current rows, for reading only: a write through
    [Relation.add]/[remove] would bypass the indexes. *)

val add : t -> Tuple.t -> bool
(** Insert a tuple and patch every index; [false] (and nothing charged)
    if it was already present.  Raises [Invalid_argument] on arity
    mismatch. *)

val remove : t -> Tuple.t -> bool
(** Delete a tuple and patch every index; [false] if it was absent. *)

val index : t -> Schema.var list -> Index.t
(** [index t key] is the relation's index on the variables [key]
    (ascending), built on first use and shared by every caller that
    asks for the same key.  The index is read-only to the caller: {!add}
    and {!remove} keep it equal to the rows. *)

val join_from :
  ?limit:int -> Relation.t -> t list -> keep:Schema.var list -> Relation.t
(** [join_from seed atoms ~keep] joins [seed] (typically one pinned
    tuple) with every atom, projected onto [keep].  Each step joins the
    connected atom with the most variables already bound, through its
    index on those variables (a fully bound atom is a membership
    filter), then projects away the variables that neither [keep] nor a
    remaining atom needs.  Charges the {!Cost} counters like
    {!Index.join}.  Raises [Relation.Too_big] as soon as an
    intermediate or the result holds more than [limit] tuples. *)

type semiring = {
  zero : int;  (** the identity of [add]: the aggregate of no rows *)
  one : int;  (** the identity of [mul] *)
  add : int -> int -> int;
  mul : int -> int -> int;
  default : int option;
      (** the annotation of a row with no stored weight; [None] ignores
          stored weights and annotates every row [one] (COUNT) *)
}
(** A commutative semiring over [int] annotations, passed as values. *)

val agg_from : semiring -> Relation.t -> t list -> int
(** [agg_from sr seed atoms] is the semiring sum, over every way to
    extend a row of [seed] by one row of each atom, of the product of
    those rows' annotations — [zero] when there is none.  It joins the
    atoms one at a time in {!join_from}'s order, starting from the seed
    rows annotated [one]; a step multiplies each matched row's
    annotation into its accumulated row, and ⊕-merges the rows that
    agree on the variables a remaining atom still needs, so no
    intermediate holds a variable past its last atom.  Charges one probe
    per index lookup or membership test, one scan per row visited (of
    the intermediate and of each bucket) and one tuple per new merged
    row. *)

val exists : (Schema.var * int) list -> t list -> bool
(** [exists binding atoms]: does some assignment that extends [binding]
    satisfy every atom?  A variable bound twice to different values has
    no witness.  Exits at the first witness.  At each level it counts
    the matches of every remaining atom under the current binding (one
    O(1) {!Index.count}, or a membership test for a fully bound atom),
    fails as soon as one has none, and extends through the atom with the
    fewest, so a fan-out atom waits until its variables are pinned.
    Charges one probe per count and per bucket walk and one scan per
    match visited. *)
