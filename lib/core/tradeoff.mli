(** Intrinsic space-time tradeoffs [S^a · T^b ≅ |D|^c · |Q_A|^e] and
    piecewise-linear tradeoff curves in the [(log_|D| S, log_|D| T)]
    plane. *)

open Stt_lp

type t = {
  s_exp : Rat.t;
  t_exp : Rat.t;
  d_exp : Rat.t;
  q_exp : Rat.t;
}

val make : s_exp:Rat.t -> t_exp:Rat.t -> d_exp:Rat.t -> q_exp:Rat.t -> t

val scaled : t -> t
(** Scale to the smallest nonnegative integer exponents (multiply by the
    lcm of denominators, divide by the gcd), as printed in the paper's
    tables. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val grid : lo:Rat.t -> hi:Rat.t -> steps:int -> Rat.t list
(** [steps + 1] evenly spaced points of [[lo, hi]]. *)
