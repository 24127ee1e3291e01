(** Symbolic degree constraints (Section 2) and split constraints
    (Definition C.2).

    Log-sizes are linear forms [d·log|D| + q·log|Q_A|] with exact rational
    coefficients, so a constraint like [(∅, F, |R_F|)] has log-size
    [{d = 1; q = 0}] and the access-request cardinality constraint
    [(∅, A, |Q_A|)] has [{d = 0; q = 1}].  The LP layer evaluates these at
    numeric values of [log|D|] and [log|Q|] and attributes dual mass back
    to the [d]/[q] components to recover tradeoff exponents. *)

type logsize = { d : Stt_lp.Rat.t; q : Stt_lp.Rat.t }

val logsize_zero : logsize
val logsize_d : logsize  (** log |D| *)

val logsize_add : logsize -> logsize -> logsize
val logsize_scale : Stt_lp.Rat.t -> logsize -> logsize
val logsize_eval : logd:Stt_lp.Rat.t -> logq:Stt_lp.Rat.t -> logsize -> Stt_lp.Rat.t

type t = { x : Varset.t; y : Varset.t; bound : logsize }
(** The degree constraint [(X, Y, N_{Y|X})] with [X ⊂ Y]:
    [deg(Y | t_X) ≤ N_{Y|X}] where [log N = bound]. *)

val make : x:Varset.t -> y:Varset.t -> logsize -> t
(** Raises [Invalid_argument] unless [x ⊂ y]. *)

val cardinality : Varset.t -> logsize -> t
(** [(∅, Y, N)]. *)

val is_cardinality : t -> bool

val default_dc : Cq.t -> t list
(** One cardinality constraint [(∅, F, |D|)] per atom [F]. *)

val default_ac : Cq.cqap -> t list
(** The cardinality constraint [(∅, A, |Q_A|)]. *)

val dedup : t list -> t list
(** Best-constraints assumption: at most one constraint per [(X, Y)]
    pair, keeping the smaller bound (by [d], then [q]). *)

type split = { sx : Varset.t; sy : Varset.t; sbound : logsize }
(** A split constraint [(X, Y|X, N_{Z|∅})]: [h_S(X) + h_T(Y|X) ≤ log N]
    and [h_S(Y|X) + h_T(X) ≤ log N]. *)

val splits : t list -> split list
(** All split constraints spanned by the cardinality constraints of the
    given set (Definition C.2): for each [(∅, Z, N)] and each
    [∅ ≠ X ⊂ Y ⊆ Z]. *)

val pp : Format.formatter -> t -> unit
