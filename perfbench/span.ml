(* Spans recorded by the benchmark around its own calls into each layer:
   name, start, end, parent and request id, in growable arrays.  Nothing
   is written until [write], so recording costs two clock reads and a
   few array stores per span.  One recorder belongs to one domain (the
   benchmark's driving loop); calls into other processes appear as one
   span each. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable open_ : int list;
}

let create () =
  let cap = 1 lsl 14 in
  {
    n = 0;
    name = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    req = Array.make cap 0;
    open_ = [];
  }

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req 0

let enter t name ~req =
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.req.(i) <- req;
  t.open_ <- i :: t.open_;
  t.start.(i) <- Stt_net.Mono.now_ns ();
  i

let leave t i =
  t.stop.(i) <- Stt_net.Mono.now_ns ();
  match t.open_ with
  | j :: rest when j = i -> t.open_ <- rest
  | _ -> invalid_arg "Span.leave: not the innermost open span"

let run t name ~req f =
  let i = enter t name ~req in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let duration_ns t i = t.stop.(i) - t.start.(i)

(* Durations (µs) of every span with this name, in recording order. *)
let durations_us t name =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.name.(i) = name then
      acc := (float_of_int (duration_ns t i) /. 1e3) :: !acc
  done;
  Array.of_list !acc

type summary = {
  by_name : (string * int * float * float) list;
      (** name, count, total µs, self µs — sorted by self time *)
  self_us : float;  (** summed self time of every span *)
  unattributed_us : float;
      (** the gaps inside the windows before, between and after roots *)
  window_us : float;  (** summed length of the windows *)
  nested : bool;
      (** every span lies inside its parent and is no shorter than its
          children, and each root lies inside a window and starts after
          the previous root ended *)
}

(* [windows] are the measured phases, as (start, stop) ns in time order.
   Self time is a span's duration minus its direct children's: spans of
   one recorder nest strictly, so children never overlap each other.
   Unattributed time is summed gap by gap, from the roots' own ends and
   the windows' edges, so self plus unattributed time adds up to the
   windows only if every root lies inside one. *)
let summarize t ~windows =
  let child_ns = Array.make t.n 0 in
  let nested = ref true and gaps = ref 0 in
  (* [ws] starts with the window the next root must lie in; [cursor] is
     where its previous root ended, or its start *)
  let ws = ref windows in
  let cursor = ref (match windows with (s, _) :: _ -> s | [] -> 0) in
  let next_window () =
    match !ws with
    | (_, stop) :: rest ->
        gaps := !gaps + stop - !cursor;
        ws := rest;
        (match rest with (s, _) :: _ -> cursor := s | [] -> ())
    | [] -> ()
  in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + duration_ns t i;
      if t.start.(i) < t.start.(p) || t.stop.(i) > t.stop.(p) then nested := false
    end
    else begin
      while match !ws with (_, stop) :: _ -> t.start.(i) >= stop | [] -> false do
        next_window ()
      done;
      match !ws with
      | (_, stop) :: _ when t.start.(i) >= !cursor && t.stop.(i) <= stop ->
          gaps := !gaps + t.start.(i) - !cursor;
          cursor := t.stop.(i)
      | _ -> nested := false
    end
  done;
  while !ws <> [] do
    next_window ()
  done;
  let tbl = Hashtbl.create 16 and self_ns = ref 0 in
  for i = 0 to t.n - 1 do
    let c, tot, self =
      Option.value (Hashtbl.find_opt tbl t.name.(i)) ~default:(0, 0, 0)
    in
    let d = duration_ns t i in
    if child_ns.(i) > d then nested := false;
    self_ns := !self_ns + d - child_ns.(i);
    Hashtbl.replace tbl t.name.(i) (c + 1, tot + d, self + d - child_ns.(i))
  done;
  let us ns = float_of_int ns /. 1e3 in
  let by_name =
    Hashtbl.fold (fun k (c, tot, self) acc -> (k, c, us tot, us self) :: acc) tbl []
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  in
  {
    by_name;
    self_us = us !self_ns;
    unattributed_us = us !gaps;
    window_us = us (List.fold_left (fun acc (s, e) -> acc + e - s) 0 windows);
    nested = !nested;
  }

(* One JSON object per line, times in ns relative to the first span; the
   earliest 200,000 spans only, so a long point run does not write a
   hundred megabytes. *)
let write t path =
  let oc = open_out path in
  let base = if t.n = 0 then 0 else t.start.(0) in
  for i = 0 to min t.n 200_000 - 1 do
    Printf.fprintf oc
      "{\"name\":%S,\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}\n"
      t.name.(i) (t.start.(i) - base) (t.stop.(i) - base) t.parent.(i)
      t.req.(i)
  done;
  close_out oc
