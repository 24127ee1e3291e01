(** Commutative semirings over [int] annotations.

    The aggregate of an access request is the semiring sum ([add]) over
    all valuations of the query's variables consistent with some request
    tuple, of the semiring product ([mul]) of the base-atom annotations.
    COUNT and SUM are the numeric semirings (annotations default to 1);
    MIN and MAX are tropical (combine = min/max, multiply = saturating
    [+], [zero] = ±infinity encoded as [max_int]/[min_int]).  Tag 0 is
    reserved for plain tuple answers, so kind-tagged cache keys can never
    collide with the tuple path. *)

type kind = Count | Sum | Min | Max

val all : kind list

val name : kind -> string
val of_name : string -> kind option

val to_tag : kind -> int
(** Wire/cache tag, in [1..4]; 0 means "tuple answer" and is never a
    semiring tag. *)

val of_tag : int -> kind option

val zero : kind -> int
(** Identity of {!add}, absorbing for {!mul} — the aggregate of an empty
    derivation set ([max_int] for MIN: "no path"). *)

val one : kind -> int
(** Identity of {!mul}. *)

val add : kind -> int -> int -> int
val mul : kind -> int -> int -> int

val default_annot : kind -> int
(** Annotation of a base tuple with no stored weight. *)

val live : kind -> Stt_relation.Live.semiring
(** The kind as the values {!Stt_relation.Live.agg_from} takes.  COUNT
    counts derivations, so it ignores stored weights. *)

val pp : Format.formatter -> kind -> unit
