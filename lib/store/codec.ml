exception Short of string
exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let guard ctx f =
  try f () with
  | Invalid_argument msg | Failure msg -> corrupt "%s: %s" ctx msg
  | Not_found -> corrupt "%s: missing binding" ctx

(* ------------------------------------------------------------------ *)
(* encoding                                                             *)
(* ------------------------------------------------------------------ *)

(* A growable byte buffer whose backing bytes are exposed: the network
   layer builds a complete wire image (length prefix, body, CRC) in one
   reusable encoder and writes the socket straight out of [data]. *)
type encoder = { mutable data : Bytes.t; mutable len : int }

let encoder ?(capacity = 1024) () =
  { data = Bytes.create (max 16 capacity); len = 0 }

let length e = e.len
let clear e = e.len <- 0
let data e = e.data
let contents e = Bytes.sub_string e.data 0 e.len

let ensure e n =
  let cap = Bytes.length e.data in
  if cap - e.len < n then begin
    let cap' = ref (2 * cap) in
    while !cap' - e.len < n do
      cap' := !cap' * 2
    done;
    let d = Bytes.create !cap' in
    Bytes.blit e.data 0 d 0 e.len;
    e.data <- d
  end

let write_u8 e v =
  ensure e 1;
  Bytes.unsafe_set e.data e.len (Char.unsafe_chr (v land 0xFF));
  e.len <- e.len + 1

let set_u32 e ~pos v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.set_u32";
  if pos < 0 || pos + 4 > e.len then invalid_arg "Codec.set_u32: out of range";
  for i = 0 to 3 do
    Bytes.unsafe_set e.data (pos + i)
      (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
  done

let write_u32 e v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.write_u32";
  ensure e 4;
  e.len <- e.len + 4;
  set_u32 e ~pos:(e.len - 4) v

let rec write_uint e v =
  if v < 0 then invalid_arg "Codec.write_uint: negative"
  else if v < 0x80 then write_u8 e v
  else begin
    write_u8 e (0x80 lor (v land 0x7F));
    write_uint e (v lsr 7)
  end

(* zigzag: 0 → 0, -1 → 1, 1 → 2, -2 → 3, ... keeps small magnitudes in
   one varint byte regardless of sign *)
let write_int e v = write_uint e ((v lsl 1) lxor (v asr 62))
let write_bool e v = write_u8 e (if v then 1 else 0)

let write_bytes e src ~pos ~len =
  ensure e len;
  Bytes.blit src pos e.data e.len len;
  e.len <- e.len + len

let write_string e s =
  write_uint e (String.length s);
  write_bytes e (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let drop_front e n =
  if n < 0 || n > e.len then invalid_arg "Codec.drop_front";
  Bytes.blit e.data n e.data 0 (e.len - n);
  e.len <- e.len - n

let write_list e f xs =
  write_uint e (List.length xs);
  List.iter f xs

let write_rows e ~arity rows =
  write_uint e (List.length rows);
  for j = 0 to arity - 1 do
    let prev = ref 0 in
    List.iter
      (fun row ->
        if Array.length row <> arity then
          invalid_arg "Codec.write_rows: arity mismatch";
        write_int e (row.(j) - !prev);
        prev := row.(j))
      rows
  done

(* semiring values: the zigzag varint cannot carry the tropical
   ±infinity sentinels (MIN's [max_int], MAX's [min_int]) — [v lsl 1]
   overflows — so they get their own tag bytes *)
let write_value e v =
  if v = max_int then write_u8 e 1
  else if v = min_int then write_u8 e 2
  else begin
    write_u8 e 0;
    write_int e v
  end

(* ------------------------------------------------------------------ *)
(* decoding                                                             *)
(* ------------------------------------------------------------------ *)

type decoder = { src : string; mutable pos : int; limit : int }

let decoder src = { src; pos = 0; limit = String.length src }

(* decode a window of [src] without copying it out first — the network
   layer cuts frames straight out of its connection read buffer *)
let decoder_sub src ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length src then
    invalid_arg "Codec.decoder_sub";
  { src; pos; limit = pos + len }

let remaining d = d.limit - d.pos

let read_u8 d =
  if d.pos >= d.limit then raise (Short "byte");
  let v = Char.code (String.unsafe_get d.src d.pos) in
  d.pos <- d.pos + 1;
  v

let read_u32 d =
  let a = read_u8 d in
  let b = read_u8 d in
  let c = read_u8 d in
  let e = read_u8 d in
  a lor (b lsl 8) lor (c lsl 16) lor (e lsl 24)

(* the ninth byte carries bits 56..62 of which only 56..61 fit a
   non-negative int: a larger byte (or a continuation) would decode to a
   negative count or wrap *)
let read_uint d =
  let rec go shift acc =
    let byte = read_u8 d in
    if shift = 56 && byte > 0x3F then raise (Corrupt "varint overflows int");
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    if byte land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_int d =
  let v = read_uint d in
  (v lsr 1) lxor (- (v land 1))

let read_bool d =
  match read_u8 d with
  | 0 -> false
  | 1 -> true
  | n -> raise (Corrupt (Printf.sprintf "bool byte %d" n))

let read_bytes d n =
  if n < 0 then raise (Corrupt "negative byte count");
  if n > remaining d then raise (Short "bytes");
  let s = String.sub d.src d.pos n in
  d.pos <- d.pos + n;
  s

let read_string d = read_bytes d (read_uint d)

let read_list d f =
  let n = read_uint d in
  (* every element costs at least one byte, so a count beyond the
     remaining bytes is corruption, not a huge allocation request *)
  if n > remaining d + 1 then raise (Corrupt "count exceeds payload");
  List.init n (fun _ -> f ())

let max_empty_rows = 65_536

let read_rows d ~arity =
  let n = read_uint d in
  (* each value costs at least one byte, so the payload bounds the row
     count; rows of arity 0 cost nothing and get a fixed cap instead *)
  let unpaid =
    if arity = 0 then n > max_empty_rows else n > remaining d / arity
  in
  if unpaid then
    raise
      (Corrupt (Printf.sprintf "%d rows of arity %d exceed payload" n arity));
  let rows = List.init n (fun _ -> Array.make arity 0) in
  for j = 0 to arity - 1 do
    let prev = ref 0 in
    List.iter
      (fun row ->
        prev := !prev + read_int d;
        row.(j) <- !prev)
      rows
  done;
  rows

let read_value d =
  match read_u8 d with
  | 0 -> read_int d
  | 1 -> max_int
  | 2 -> min_int
  | n -> raise (Corrupt (Printf.sprintf "semiring value tag %d" n))

let expect_end d what =
  if remaining d <> 0 then
    raise (Corrupt (Printf.sprintf "%s: %d trailing bytes" what (remaining d)))
