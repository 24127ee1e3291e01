(** Rooted tree decompositions (Definition 3.1) with the free-connex
    property test used by PMTDs. *)

open Stt_hypergraph

type t = { tree : Rtree.t; bags : Varset.t array }

val create : Rtree.t -> Varset.t array -> t
(** Raises [Invalid_argument] on size mismatch. *)

val bag : t -> int -> Varset.t
val size : t -> int
val root : t -> int

val is_valid : t -> Hypergraph.t -> bool
(** Both tree-decomposition properties: every hyperedge inside some bag,
    and for every vertex the bags containing it form a connected
    subtree. *)

val top : t -> int -> int
(** [top td x]: the highest node (w.r.t. the root) whose bag contains
    [x].  Raises [Not_found] if no bag contains [x].  Well-defined only
    on valid decompositions (connectedness makes the highest node
    unique). *)

val is_free_connex : t -> head:Varset.t -> bool
(** Free-connex w.r.t. this decomposition's root: no [TOP(y)] with
    [y ∉ H] is a strict ancestor of some [TOP(x)] with [x ∈ H]. *)

val reroot : t -> int -> t
val merge_subtree : t -> int -> t
(** Replace node [i]'s bag by the union of its subtree's bags and remove
    the rest of the subtree (the Section 6.3 merge operation). *)

val canonical_key : t -> string
(** A key identifying the decomposition up to node renumbering (used to
    deduplicate enumerations): sorted bags plus sorted edge list over
    bag contents. *)

val pp : string array -> Format.formatter -> t -> unit
