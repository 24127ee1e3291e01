(** A schema is an ordered list of distinct variable identifiers.

    Variables are small integers shared with {!Stt_hypergraph}; a relation
    over schema [[|x; y|]] stores tuples whose position [0] carries the
    value of variable [x]. *)

type var = int
type t = private var array

val of_list : var list -> t
(** Raises [Invalid_argument] if the variables are not distinct. *)

val vars : t -> var list
val arity : t -> int
val mem : var -> t -> bool

val position : t -> var -> int
(** Position of a variable.  Raises [Not_found] if absent. *)

val positions : t -> var list -> int array
(** Positions of several variables, in the order given. *)

val inter : t -> t -> var list
(** Common variables, in the order of the first schema. *)

val union : t -> t -> t
(** First schema followed by the variables unique to the second. *)

val subset : t -> t -> bool
(** [subset a b] — is every variable of [a] in [b]? *)

val equal : t -> t -> bool
(** Equality as sets of variables (order-insensitive). *)

val restrict : t -> var list -> t
(** Keep only the listed variables, preserving schema order. *)

val pp : Format.formatter -> t -> unit
