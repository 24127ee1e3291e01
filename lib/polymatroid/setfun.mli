(** Set functions [h : 2^[n] → Q], stored densely by bitmask. *)

open Stt_hypergraph

type t

val create : int -> (Varset.t -> Stt_lp.Rat.t) -> t
(** [create n f]: tabulate [f] on all subsets of [{0..n-1}].
    [f empty] is forced to 0. *)

val n : t -> int
val get : t -> Varset.t -> Stt_lp.Rat.t
val conditional : t -> Varset.t -> Varset.t -> Stt_lp.Rat.t
(** [conditional h x y] = [h(Y) - h(X)] (the paper's [h(Y|X)]). *)

val is_monotone : t -> bool
val is_submodular : t -> bool
val is_polymatroid : t -> bool

val pp : Format.formatter -> t -> unit
