(* Reflected CRC-32 with the 0xEDB88320 polynomial.  OCaml ints are 63
   bits everywhere we run, so the 32-bit arithmetic fits in plain [int]
   with a final mask. *)

type t = int

let mask = 0xFFFFFFFF

(* built eagerly: forcing a [lazy] from two domains at once raises, and
   load-generator domains encode their first frames concurrently *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let init = mask

let update t s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let c = ref t in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
         lxor (!c lsr 8)
  done;
  !c

let finish t = t lxor mask land mask
let string s = finish (update init s ~pos:0 ~len:(String.length s))
