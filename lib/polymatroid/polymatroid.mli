(** LP encodings of the polymatroid cone Γ_n and the polymatroid size
    bound [LogSizeBound] of disjunctive rules (Theorem C.1).

    For larger [n] the submodularity constraints are generated lazily
    (cutting planes): the LP is solved over elemental monotonicity plus
    the cuts added so far, the primal optimum is checked against all
    elemental submodularity inequalities, violated ones are added, and
    the LP is re-solved until clean.  Because omitted constraints are
    slack at the final optimum, the dual extends with zeros — dual
    coefficient extraction stays exact. *)

open Stt_hypergraph
open Stt_lp

type h
(** One polymatroid's worth of LP variables: [h(S)] for every non-empty
    [S ⊆ [n]] (with [h(∅)] the constant 0). *)

val add : ?lazy_cuts:bool -> Lp.model -> name:string -> n:int -> h
(** With [lazy_cuts:false] (default) all elemental submodularity rows are
    added eagerly; with [true] only elemental monotonicity, and callers
    must iterate via {!solve_cuts}. *)

val var : h -> Varset.t -> Lp.var
(** Raises [Invalid_argument] on the empty set. *)

val expr : h -> Cvec.t -> Lp.linexpr
(** Translate a conditional-coordinate vector into a linear expression
    over this polymatroid's variables. *)

val solve_cuts : Lp.model -> h list -> Lp.linexpr -> Lp.outcome
(** Maximize, adding violated cuts for the given polymatroids and
    re-solving until none remain.  The returned solution's duals are
    valid for the full (eager) program. *)

val constrain_degree :
  Lp.model -> h -> Degree.t -> logd:Rat.t -> logq:Rat.t -> Lp.cstr
(** Add [h(Y|X) ≤ log N_{Y|X}] with the bound evaluated numerically. *)

val cap : Rat.t
(** A bound larger than any meaningful log-size, used to keep lazily-cut
    programs bounded; reaching it is reported as unbounded. *)

val log_size_bound :
  n:int ->
  dc:Degree.t list ->
  targets:Varset.t list ->
  logd:Rat.t ->
  logq:Rat.t ->
  Rat.t option
(** [LogSizeBound_{Γ_n ∩ HDC}] of a disjunctive rule with the given
    targets: [max_h min_B h(B)].  [None] if unbounded. *)
