(** A small modeling layer over {!Simplex} with named variables.

    All variables are implicitly nonnegative.  Constraints may be [<=],
    [>=] or [=]; internally everything is normalized to [<=] rows and the
    reported dual of each constraint is oriented so that for a
    maximization problem the dual of a binding [<=] constraint is
    nonnegative (this is the orientation in which Shannon-flow
    coefficients are read off the dual in the paper). *)

type model
type var
type cstr

type solution = {
  value : Rat.t;
  primal : var -> Rat.t;
  dual : cstr -> Rat.t;
}

type outcome = Solution of solution | Infeasible | Unbounded

val create : unit -> model

val var : model -> string -> var
(** Declare (or retrieve) the nonnegative variable with this name. *)

type linexpr = (Rat.t * var) list

val add_le : model -> ?name:string -> linexpr -> Rat.t -> cstr
val add_ge : model -> ?name:string -> linexpr -> Rat.t -> cstr
val add_eq : model -> ?name:string -> linexpr -> Rat.t -> cstr

val maximize : model -> linexpr -> outcome
val minimize : model -> linexpr -> outcome

val num_vars : model -> int
val num_constraints : model -> int

val set_enabled : model -> cstr -> bool -> unit
(** Enable or disable a constraint: disabled constraints are skipped by
    the solvers and report a zero dual.  Used by cut-generation loops to
    solve over a working subset of generated rows. *)

val is_enabled : model -> cstr -> bool

val num_enabled_rows : model -> int

type fsolution = {
  fvalue : float;
  fprimal : var -> float;
  fdual : cstr -> float;
}

val maximize_float : model -> linexpr -> fsolution option
(** Fast floating-point solve (see {!Fsimplex}) over the enabled rows —
    a presolver for discovering active constraints; never a source of
    exact answers.  [None] on infeasible or unbounded. *)
