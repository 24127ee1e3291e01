type t = int

let empty = 0
let is_empty t = t = 0

let check i =
  if i < 0 || i > 62 then invalid_arg "Varset: variable out of [0, 62]"

let singleton i =
  check i;
  1 lsl i

let add i t = t lor singleton i
let remove i t = t land lnot (singleton i)
let mem i t = t land (1 lsl i) <> 0
let of_list is = List.fold_left (fun acc i -> add i acc) empty is
let full n = if n = 0 then 0 else (1 lsl n) - 1
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let subset a b = a land lnot b = 0
let equal a b = a = b
let strict_subset a b = subset a b && not (equal a b)
let compare (a : int) (b : int) = Stdlib.compare a b

let cardinal t =
  let rec loop t acc = if t = 0 then acc else loop (t land (t - 1)) (acc + 1) in
  loop t 0

let choose t =
  if t = 0 then raise Not_found;
  let rec loop i = if t land (1 lsl i) <> 0 then i else loop (i + 1) in
  loop 0

let fold f t init =
  let rec loop t acc =
    if t = 0 then acc
    else
      let i = choose t in
      loop (remove i t) (f i acc)
  in
  loop t init

let iter f t = fold (fun i () -> f i) t ()
let to_list t = List.rev (fold List.cons t [])
let for_all p t = fold (fun i acc -> acc && p i) t true
let exists p t = fold (fun i acc -> acc || p i) t false
let filter p t = fold (fun i acc -> if p i then add i acc else acc) t empty
let disjoint a b = a land b = 0
let crossing a b = (not (subset a b)) && not (subset b a)

let subsets t =
  (* iterate submasks in increasing order *)
  let rec loop sub acc =
    let acc = sub :: acc in
    if sub = t then acc else loop ((sub - t) land t) acc
  in
  List.rev (loop 0 [])

let to_int t = t
let of_int_unsafe t = t
let write e t = Stt_store.Codec.write_uint e t

let read ~within d =
  let t = Stt_store.Codec.read_uint d in
  if not (subset t within) then
    Stt_store.Codec.corrupt "variable set %d outside %d" t within;
  t

let hash t = Hashtbl.hash t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list t)

let pp_named names ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf i ->
         if i < Array.length names then Format.pp_print_string ppf names.(i)
         else Format.pp_print_int ppf i))
    (to_list t)

let to_string t = Format.asprintf "%a" pp t
