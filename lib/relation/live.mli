(** Live relations: a {!Relation.t} that takes deltas, with the
    persistent {!Index.t}s the delta path probes.

    {!add} and {!remove} are the only writes, and they patch every index
    the relation has, so no index can drift from its rows.  An index is
    keyed by a set of variables and built with {!Index.build} the first
    time it is probed — an uncounted, preprocessing-style pass — so a
    relation that never takes a delta never builds one.

    The two kernels below run a delta's joins as index probes from a
    pinned tuple, so their work follows the tuple's neighbourhood rather
    than the size of the relations (the "much smaller join" {t}⋈S of
    delta maintenance).  Each relation passed to them stands for one
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

exception Too_big
(** Raised by {!join_from} past its limit. *)

val join_from :
  ?limit:int -> Relation.t -> t list -> keep:Schema.var list -> Relation.t
(** [join_from seed atoms ~keep] joins [seed] (typically one pinned
    tuple) with every atom, projected onto [keep].  Each step joins the
    connected atom with the most variables already bound, through its
    index on those variables (a fully bound atom is a membership
    filter), then projects away the variables that neither [keep] nor a
    remaining atom needs.  Charges the {!Cost} counters like
    {!Index.join}.  Raises {!Too_big} as soon as an intermediate or the
    result holds more than [limit] tuples. *)

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
