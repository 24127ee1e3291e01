(** Exact piecewise-linear tradeoff curves.

    [OBJ(S)] is a concave piecewise-linear function of [log S] (it is
    the value of an LP whose right-hand side moves linearly).  This
    module computes its exact breakpoints by recursive bisection: if the
    values at two budgets and their midpoint are collinear, the segment
    is affine in between; otherwise the interval is split.  The result
    is the curve plotted in Figures 3a/3b without grid artifacts. *)

open Stt_hypergraph
open Stt_lp

type segment = {
  lo : Rat.t;    (** log_D S at the segment's left end *)
  hi : Rat.t;
  lo_t : Rat.t;  (** log_D T at [lo] *)
  hi_t : Rat.t;
}

val slope : segment -> Rat.t option
(** d(log T)/d(log S); [None] for a degenerate (single-point) segment. *)

val combined :
  Rule.t list ->
  dc:Degree.t list ->
  ac:Degree.t list ->
  logq:Rat.t ->
  lo:Rat.t ->
  hi:Rat.t ->
  segment list
(** Segments of [max over rules] of the per-rule curves — the framework's
    answering-time curve (Section 4.3's T_max). *)

val eval : segment list -> Rat.t -> Rat.t option
(** Interpolate the curve at a budget; [None] outside its range. *)

val pp : Format.formatter -> segment list -> unit
