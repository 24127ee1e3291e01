(** Global switch for factorized (d-representation) storage.

    One knob shared by every layer that can hold a view compressed —
    Twopp admission, Online Yannakakis S-views, the answer cache.  The
    mode is read at decision points during builds and cache admissions;
    set it before building (the build pool's worker domains read it
    concurrently, so flipping it mid-build is a race, not a feature).

    The initial mode comes from the [STT_FACTORIZE] environment
    variable: ["off"], ["auto"] (the default) or ["on"] (forced). *)

type mode =
  | Off  (** never factorize: flat tuple sets everywhere (pre-PR behaviour) *)
  | Auto
      (** factorize a view only when its measured compression ratio
          [rows / size] is at least 5/4 — the production default *)
  | Forced
      (** factorize every eligible view regardless of measured ratio;
          for differential tests that must exercise the compressed path
          on incompressible data too *)

val mode : unit -> mode
val set_mode : mode -> unit

val eligible : rows:int -> size:int -> bool
(** Mode-aware gate, [false] for an empty view ([rows = 0]) in every
    mode, which has nothing to compress; otherwise [false] under [Off];
    under [Auto], [4 * rows >= 5 * size], i.e. every stored singleton of
    the d-representation stands in for at least 1.25 flat rows; [true]
    under [Forced]. *)

val effective_size : rows:int -> size:int -> int
(** The stored-singleton charge a view of [rows] flat tuples whose
    d-representation has [size] singletons would be accounted at:
    [size] when {!eligible}, [rows] otherwise. *)
