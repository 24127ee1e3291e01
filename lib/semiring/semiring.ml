(* The four commutative semirings over int annotations, plus the plain
   tuple (boolean) semantics as tag 0.  MIN and MAX are the tropical
   variants (combine = min/max, multiply = +) with explicit absorption:
   [zero] is the identity of [add] and annihilates [mul], so an empty
   derivation set is "no path" (MIN: infinity) rather than an overflow
   artifact. *)

type kind = Count | Sum | Min | Max

let all = [ Count; Sum; Min; Max ]

let name = function
  | Count -> "count"
  | Sum -> "sum"
  | Min -> "min"
  | Max -> "max"

let of_name = function
  | "count" -> Some Count
  | "sum" -> Some Sum
  | "min" -> Some Min
  | "max" -> Some Max
  | _ -> None

(* Wire/cache tags: 0 is reserved for the tuple (boolean) semiring, so a
   kind-tagged cache key can never collide with a tuple answer's key. *)
let to_tag = function Count -> 1 | Sum -> 2 | Min -> 3 | Max -> 4

let of_tag = function
  | 1 -> Some Count
  | 2 -> Some Sum
  | 3 -> Some Min
  | 4 -> Some Max
  | _ -> None

let zero = function Count | Sum -> 0 | Min -> max_int | Max -> min_int
let one = function Count | Sum -> 1 | Min -> 0 | Max -> 0

let add k a b =
  match k with
  | Count | Sum -> a + b
  | Min -> min a b
  | Max -> max a b

let mul k a b =
  match k with
  | Count | Sum -> a * b
  | Min -> if a = max_int || b = max_int then max_int else a + b
  | Max -> if a = min_int || b = min_int then min_int else a + b

(* The annotation a base tuple carries when the database stored no
   explicit weight: every tuple counts once, contributes weight 1, and
   is a zero-cost hop for the tropical kinds. *)
let default_annot = function Count -> 1 | Sum -> 1 | Min -> 0 | Max -> 0

(* COUNT counts derivations, so it ignores any stored weight column *)
let live k =
  {
    Stt_relation.Live.zero = zero k;
    one = one k;
    add = add k;
    mul = mul k;
    default = (if k = Count then None else Some (default_annot k));
  }

let pp ppf k = Format.pp_print_string ppf (name k)
