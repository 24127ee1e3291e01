(** k-Reachability data structures (Section 6.4).

    Three implementations:

    - {!Bfs}: no preprocessing (S = 0); answers by depth-bounded BFS in
      [O(|E|)] — one endpoint of every tradeoff curve.
    - {!Baseline}: the Goldstein–Kopelowitz–Lewenstein–Porat structure
      whose conjectured-optimal tradeoff [S · T^{2/(k-1)} ≅ |E|^2] the
      paper improves on: answers for heavy-out × heavy-in vertex pairs
      are materialized and every other query recurses through a
      low-degree endpoint.
    - {!Framework}: the paper's framework via {!Stt_core.Engine} over the
      automatically enumerated PMTD set. *)

type edges = (int * int) list

module Bfs : sig
  type t

  val build : edges -> t
  val query : t -> k:int -> int -> int -> bool
  (** Path of length exactly [k]?  Cost-counted. *)
end

module Baseline : sig
  type t

  val build : k:int -> edges -> budget:int -> t
  val space : t -> int
  val threshold : t -> int
  val query : t -> int -> int -> bool
  (** Path of length exactly [k]?  Cost-counted. *)
end

module Framework : sig
  type t

  val build : k:int -> edges -> budget:int -> t
  val space : t -> int
  val query : t -> int -> int -> bool
  val engine : t -> Stt_core.Engine.t
end

module AtMost : sig
  (** "Path of length at most k" oracle, built as the union of the
      exact-length indexes for 1..k (the combination suggested in
      Example 2.3).  The budget is split evenly. *)

  type t

  val build : k:int -> edges -> budget:int -> t
  val space : t -> int
  val query : t -> int -> int -> bool
end

module Counting : sig
  (** Path {e counting}: how many distinct [k]-edge walks [u -> ... -> v]?
      A sum-product CQAP over the counting semiring — the aggregate is
      answered without materializing the walks themselves
      ({!Stt_core.Engine.answer_agg}). *)

  type t

  val build : k:int -> edges -> budget:int -> agg_budget:int -> t
  (** [budget] bounds the tuple-answering structures (as in
      {!Framework.build}); [agg_budget] bounds the precomputed COUNT
      table ({!Stt_core.Engine.enable_agg}). *)

  val count : t -> int -> int -> int
  (** Number of distinct [k]-edge walks from [u] to [v].  Cost-counted. *)

  val engine : t -> Stt_core.Engine.t
end

val naive_count : edges -> k:int -> int -> int -> int
(** Reference walk count by layered dynamic programming (tests only). *)

val naive : edges -> k:int -> int -> int -> bool
(** Reference by exhaustive path search (tests only). *)
