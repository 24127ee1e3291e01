type snapshot = { probes : int; tuples : int; scans : int }

let zero = { probes = 0; tuples = 0; scans = 0 }

(* Per-domain counter state: parallel workers each accumulate into their
   own domain's counters (no contention, no atomics on the hot path) and
   the domain pool merges worker snapshots back into the parent domain in
   task order, so the aggregate is identical to a sequential run. *)
type state = {
  mutable probes : int;
  mutable tuples : int;
  mutable scans : int;
  mutable counting : bool;
}

let key =
  Domain.DLS.new_key (fun () ->
      { probes = 0; tuples = 0; scans = 0; counting = true })

let st () = Domain.DLS.get key

let reset () =
  let s = st () in
  s.probes <- 0;
  s.tuples <- 0;
  s.scans <- 0

let snapshot () =
  let s = st () in
  { probes = s.probes; tuples = s.tuples; scans = s.scans }

let total (s : snapshot) = s.probes + s.tuples + s.scans

let diff (a : snapshot) (b : snapshot) : snapshot =
  { probes = a.probes - b.probes;
    tuples = a.tuples - b.tuples;
    scans = a.scans - b.scans }

let add (a : snapshot) (b : snapshot) : snapshot =
  { probes = a.probes + b.probes;
    tuples = a.tuples + b.tuples;
    scans = a.scans + b.scans }

let merge (d : snapshot) =
  let s = st () in
  s.probes <- s.probes + d.probes;
  s.tuples <- s.tuples + d.tuples;
  s.scans <- s.scans + d.scans

let charge_probe () =
  let s = st () in
  if s.counting then s.probes <- s.probes + 1

let charge_tuple () =
  let s = st () in
  if s.counting then s.tuples <- s.tuples + 1

let charge_scan () =
  let s = st () in
  if s.counting then s.scans <- s.scans + 1

let charge_tuples n =
  let s = st () in
  if s.counting then s.tuples <- s.tuples + n

let charge_scans n =
  let s = st () in
  if s.counting then s.scans <- s.scans + n

let counting () = (st ()).counting
let set_counting flag = (st ()).counting <- flag

let with_counting flag f =
  let s = st () in
  let saved = s.counting in
  s.counting <- flag;
  Fun.protect ~finally:(fun () -> s.counting <- saved) f

(* Scoped measurement never resets the counters: it diffs snapshots, so
   nested scopes (and a [measure] nested inside [with_counting false])
   compose — an inner scope cannot clobber the counts an outer scope is
   accumulating, and an exception unwinding through a scope leaves both
   the counters and the counting flag exactly as [Fun.protect] restored
   them. *)
let scoped f =
  let before = snapshot () in
  let x = f () in
  (x, diff (snapshot ()) before)

let measure f =
  let before = snapshot () in
  let x = with_counting true f in
  (x, diff (snapshot ()) before)
