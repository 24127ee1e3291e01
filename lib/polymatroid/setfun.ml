open Stt_lp
open Stt_hypergraph

type t = { n : int; table : Rat.t array }

let create n f =
  if n < 0 || n > 20 then invalid_arg "Setfun.create: n out of range";
  let table =
    Array.init (1 lsl n) (fun mask ->
        if mask = 0 then Rat.zero else f (Varset.of_int_unsafe mask))
  in
  { n; table }

let n t = t.n
let get t s = t.table.(Varset.to_int s)
let conditional t x y = Rat.sub (get t y) (get t x)

let is_monotone t =
  let ok = ref true in
  for mask = 0 to (1 lsl t.n) - 1 do
    for i = 0 to t.n - 1 do
      if mask land (1 lsl i) = 0 then
        if Rat.compare t.table.(mask lor (1 lsl i)) t.table.(mask) < 0 then
          ok := false
    done
  done;
  !ok

let is_submodular t =
  (* elemental: h(Z+i) + h(Z+j) >= h(Z+i+j) + h(Z) for i < j, Z avoiding both *)
  let ok = ref true in
  for i = 0 to t.n - 1 do
    for j = i + 1 to t.n - 1 do
      let bi = 1 lsl i and bj = 1 lsl j in
      for mask = 0 to (1 lsl t.n) - 1 do
        if mask land bi = 0 && mask land bj = 0 then begin
          let lhs = Rat.add t.table.(mask lor bi) t.table.(mask lor bj) in
          let rhs = Rat.add t.table.(mask lor bi lor bj) t.table.(mask) in
          if Rat.compare lhs rhs < 0 then ok := false
        end
      done
    done
  done;
  !ok

let is_nonnegative t = Array.for_all (fun v -> Rat.sign v >= 0) t.table

let is_polymatroid t =
  Rat.is_zero t.table.(0) && is_nonnegative t && is_monotone t
  && is_submodular t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for mask = 0 to (1 lsl t.n) - 1 do
    Format.fprintf ppf "h%a = %a@ " Varset.pp
      (Varset.of_int_unsafe mask)
      Rat.pp t.table.(mask)
  done;
  Format.fprintf ppf "@]"
