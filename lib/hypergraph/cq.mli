(** Conjunctive queries and conjunctive queries with access patterns.

    A CQ is a hypergraph whose vertices carry variable names, a list of
    named atoms and a set of head variables.  A CQAP additionally carries
    the access pattern [A]; per Section 2.2 of the paper we normalize so
    that [A ⊆ H] (adding access variables to the head when needed). *)

type atom = { rel : string; vars : int list }
(** An atom [rel(x_{i1}, ..., x_{ik})] with distinct variables. *)

type t = private {
  n : int;
  var_names : string array;
  head : Varset.t;
  atoms : atom list;
}

type cqap = private { cq : t; access : Varset.t }

val create : var_names:string array -> head:Varset.t -> atom list -> t
(** Raises [Invalid_argument] if an atom repeats a variable, mentions one
    out of range, or if some variable appears in no atom. *)

val with_access : t -> Varset.t -> cqap
(** Builds a CQAP, adding the access variables to the head (the paper's
    normalization for [H ⊉ A]). *)

val atom_vars : atom -> Varset.t
val hypergraph : t -> Hypergraph.t
val is_hierarchical : t -> bool
(** For any two variables, their atom sets are disjoint or one contains
    the other. *)

val is_acyclic : t -> bool
(** GYO reduction on the hypergraph. *)

val pp : Format.formatter -> t -> unit
val pp_cqap : Format.formatter -> cqap -> unit

(** Standard queries used across the paper. *)
module Library : sig
  val k_path : int -> cqap
  (** k-reachability: [φk(x1, x_{k+1} | x1, x_{k+1}) ← ⋀ R(x_i, x_{i+1})];
      variable [x_i] has id [i - 1]. *)

  val k_set_disjointness : int -> cqap
  (** Boolean version of (1): [φ( | x_[k]) ← ⋀ R(y, x_i)]; [x_i] has id
      [i - 1], [y] has id [k]. *)

  val k_set_intersection : int -> cqap
  (** Non-Boolean version (2): head additionally contains [y]. *)

  val triangle_detect : cqap
  (** Example E.4: [φ(x1, x3 | ∅) ← R(x1,x2), R(x2,x3), R(x3,x1)]. *)

  val square : cqap
  (** Example E.5: opposite corners of a 4-cycle, [A = {x1, x3}]. *)

  val edge_triangle : cqap
  (** Edge-triangle detection: [φ( | x1, x2) ← R(x1,x2), R(x2,x3), R(x3,x1)]. *)

  val hierarchical_binary : cqap
  (** The Appendix F / Figure 5 query:
      [φ(Z | Z) ← R(X,Y1,Z1), S(X,Y1,Z2), T(X,Y2,Z3), U(X,Y2,Z4)]
      with ids X=0, Y1=1, Y2=2, Z1=3, Z2=4, Z3=5, Z4=6. *)
end
