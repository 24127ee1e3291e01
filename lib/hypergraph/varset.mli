(** Sets of query variables, represented as bit sets.

    Variables are integers in [0, 62].  Used throughout for hyperedges,
    tree-decomposition bags, access patterns and the index sets of
    polymatroid set functions. *)

type t = private int

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val of_list : int list -> t
val to_list : t -> int list
val full : int -> t
(** [full n] = [{0, ..., n-1}]. *)

val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
(** [subset a b]: is [a ⊆ b]? *)

val strict_subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val cardinal : t -> int
val choose : t -> int
(** Least element.  Raises [Not_found] on the empty set. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
val disjoint : t -> t -> bool
val crossing : t -> t -> bool
(** [crossing i j]: neither [i ⊆ j] nor [j ⊆ i] (written [I ⊥ J] in the
    paper's submodularity rule). *)

val subsets : t -> t list
(** All subsets, including [empty] and the set itself. *)

val to_int : t -> int
val of_int_unsafe : int -> t

val write : Stt_store.Codec.encoder -> t -> unit
(** The bit set as one varint. *)

val read : within:t -> Stt_store.Codec.decoder -> t
(** Inverse of {!write}.  Raises [Stt_store.Codec.Corrupt] unless the
    set is a subset of [within] (a query's variable universe). *)

val hash : t -> int
val pp : Format.formatter -> t -> unit
val pp_named : string array -> Format.formatter -> t -> unit
(** Print using variable names from the array. *)

val to_string : t -> string
