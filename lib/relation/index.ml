(* Flat-bucket layout: tuples are stored row-major in one contiguous int
   array, grouped by key and sorted by row ({!Tuple.compare}) within a
   bucket; the hash table maps a key to its (start row, row count)
   range.  Building allocates one key tuple per distinct key and nothing
   per row outside the bucket sort; probing a bucket walks the flat
   array with zero allocation, [count] is O(1) instead of a list walk,
   and [remove] finds its row by binary search.

   Incremental maintenance works through a small mutable overlay on top
   of the frozen flat arrays: [extra] holds rows added since the last
   compaction (grouped by key), [dead] marks flat rows deleted since,
   one byte per flat row, so a read skips a dead row by its slot
   without copying or hashing it.  Every read path keeps its
   zero-allocation fast path when the overlay is empty; once the overlay
   outgrows a fraction of the flat storage it is folded back into fresh
   flat arrays. *)
type t = {
  key_vars : Schema.var list;
  source_schema : Schema.t;
  arity : int;
  key_pos : int array;
  mutable table : (int * int) Tuple.Tbl.t; (* key -> (first row, row count) *)
  mutable data : int array;                (* row-major tuple values, key-grouped *)
  mutable flat_rows : int;
  (* ---- overlay (empty in the common, static case) ---- *)
  mutable extra : Tuple.t list Tuple.Tbl.t; (* key -> rows added since build *)
  mutable dead : Bytes.t;   (* per flat row, non-zero = deleted;
                               empty until the first delete *)
  mutable n_dead : int;     (* flat rows marked in [dead] *)
  mutable dead_per_key : int Tuple.Tbl.t;   (* key -> deleted flat rows under it *)
  mutable overlay_rows : int;               (* |extra rows| + |dead rows| *)
}

(* lexicographic order, like {!Tuple.compare}, of the [arity] values
   from [a.(i)] and from [b.(j)] *)
let compare_at arity a i b j =
  let rec go k =
    if k >= arity then 0
    else
      let x = a.(i + k) and y = b.(j + k) in
      if x < y then -1 else if x > y then 1 else go (k + 1)
  in
  go 0

(* sort the [len] rows from row [start] of [data] in place.  The rows of
   a bucket agree on its key, so with one column [free] outside the key
   sorting that column's values sorts the rows. *)
let sort_bucket data arity free start len =
  if len > 1 then
    match free with
    | [| c |] ->
        let vals = Array.init len (fun i -> data.(((start + i) * arity) + c)) in
        Array.stable_sort Int.compare vals;
        Array.iteri (fun i v -> data.(((start + i) * arity) + c) <- v) vals
    | _ ->
        let order = Array.init len (fun i -> start + i) in
        Array.stable_sort
          (fun r r' -> compare_at arity data (r * arity) data (r' * arity))
          order;
        let rows = Array.make (len * arity) 0 in
        Array.iteri
          (fun i r -> Array.blit data (r * arity) rows (i * arity) arity)
          order;
        Array.blit rows 0 data (start * arity) (len * arity)

let build rel key_vars =
  let source_schema = Relation.schema rel in
  let pos = Schema.positions source_schema key_vars in
  let arity = Schema.arity source_schema in
  let n = Relation.cardinal rel in
  Cost.with_counting false (fun () ->
      (* pass 1: rows per key *)
      let counts = Tuple.Tbl.create (max 16 n) in
      Relation.iter
        (fun tup ->
          let key = Tuple.project pos tup in
          match Tuple.Tbl.find_opt counts key with
          | Some r -> incr r
          | None -> Tuple.Tbl.add counts key (ref 1))
        rel;
      (* prefix sums: freeze each bucket's range, then reuse the count
         refs as per-key write cursors *)
      let table = Tuple.Tbl.create (max 16 (Tuple.Tbl.length counts)) in
      let next = ref 0 in
      Tuple.Tbl.iter
        (fun key r ->
          let c = !r in
          Tuple.Tbl.add table key (!next, c);
          r := !next;
          next := !next + c)
        counts;
      (* pass 2: scatter rows into their buckets *)
      let data = Array.make (n * arity) 0 in
      Relation.iter
        (fun tup ->
          let cursor = Tuple.Tbl.find counts (Tuple.project pos tup) in
          Array.blit tup 0 data (!cursor * arity) arity;
          incr cursor)
        rel;
      let free =
        Array.of_seq
          (Seq.filter (fun c -> not (Array.mem c pos)) (Seq.init arity Fun.id))
      in
      Tuple.Tbl.iter
        (fun _ (start, len) -> sort_bucket data arity free start len)
        table;
      {
        key_vars; source_schema; arity; key_pos = pos; table; data;
        flat_rows = n;
        extra = Tuple.Tbl.create 8; dead = Bytes.empty; n_dead = 0;
        dead_per_key = Tuple.Tbl.create 8; overlay_rows = 0;
      })

let row t i = Array.sub t.data (i * t.arity) t.arity
let[@inline] is_dead t i =
  t.n_dead > 0 && Bytes.unsafe_get t.dead i <> '\000'

(* fold the overlay back into fresh flat arrays; the logical contents
   are unchanged, so probes see the same rows *)
let compact t =
  if t.overlay_rows > 0 then
    Cost.with_counting false (fun () ->
        let rows_by_key =
          Tuple.Tbl.create (max 16 (Tuple.Tbl.length t.table))
        in
        let add_row key r =
          match Tuple.Tbl.find_opt rows_by_key key with
          | Some l -> l := r :: !l
          | None -> Tuple.Tbl.add rows_by_key (Array.copy key) (ref [ r ])
        in
        Tuple.Tbl.iter
          (fun key (start, len) ->
            for i = start to start + len - 1 do
              if not (is_dead t i) then add_row key (row t i)
            done)
          t.table;
        Tuple.Tbl.iter
          (fun key rows -> List.iter (add_row key) rows)
          t.extra;
        let n =
          Tuple.Tbl.fold (fun _ l acc -> acc + List.length !l) rows_by_key 0
        in
        let table = Tuple.Tbl.create (max 16 (Tuple.Tbl.length rows_by_key)) in
        let data = Array.make (n * t.arity) 0 in
        let next = ref 0 in
        Tuple.Tbl.iter
          (fun key l ->
            let rows = List.sort Tuple.compare !l in
            let len = List.length rows in
            Tuple.Tbl.add table key (!next, len);
            List.iter
              (fun r ->
                Array.blit r 0 data (!next * t.arity) t.arity;
                incr next)
              rows)
          rows_by_key;
        t.table <- table;
        t.data <- data;
        t.flat_rows <- n;
        t.extra <- Tuple.Tbl.create 8;
        t.dead <- Bytes.empty;
        t.n_dead <- 0;
        t.dead_per_key <- Tuple.Tbl.create 8;
        t.overlay_rows <- 0)

let maybe_compact t =
  if t.overlay_rows > max 64 (t.flat_rows / 4) then compact t

let dead_under t key =
  if t.n_dead = 0 then 0
  else Option.value ~default:0 (Tuple.Tbl.find_opt t.dead_per_key key)

let extra_under t key =
  match Tuple.Tbl.find_opt t.extra key with Some rows -> rows | None -> []

(* the flat row equal to [tup] (dead or alive), or -1: a binary search
   of its sorted bucket, which holds distinct rows *)
let flat_find t key tup =
  match Tuple.Tbl.find_opt t.table key with
  | None -> -1
  | Some (start, len) ->
      (* the row lies in [lo, hi) if anywhere *)
      let rec search lo hi =
        if lo >= hi then -1
        else
          let mid = (lo + hi) / 2 in
          let c = compare_at t.arity tup 0 t.data (mid * t.arity) in
          if c = 0 then mid
          else if c < 0 then search lo mid
          else search (mid + 1) hi
      in
      search start (start + len)

let extra_mem t key tup = List.exists (Tuple.equal tup) (extra_under t key)

let bump_dead t key =
  match Tuple.Tbl.find_opt t.dead_per_key key with
  | Some v -> Tuple.Tbl.replace t.dead_per_key key (v + 1)
  | None -> Tuple.Tbl.add t.dead_per_key (Array.copy key) 1

(* the caller guarantees [tup] is absent, so the row goes straight to the
   overlay without a bucket scan; a dead flat copy stays dead until
   compaction drops it *)
let insert t tup =
  if Tuple.arity tup <> t.arity then invalid_arg "Index.insert: arity mismatch";
  Cost.charge_probe ();
  let key = Tuple.project t.key_pos tup in
  (match Tuple.Tbl.find_opt t.extra key with
  | Some rows -> Tuple.Tbl.replace t.extra key (Array.copy tup :: rows)
  | None -> Tuple.Tbl.add t.extra key [ Array.copy tup ]);
  t.overlay_rows <- t.overlay_rows + 1;
  maybe_compact t

let remove t tup =
  if Tuple.arity tup <> t.arity then invalid_arg "Index.remove: arity mismatch";
  Cost.charge_probe ();
  let key = Tuple.project t.key_pos tup in
  if extra_mem t key tup then begin
    (match
       List.filter (fun r -> not (Tuple.equal r tup)) (extra_under t key)
     with
    | [] -> Tuple.Tbl.remove t.extra key
    | rows -> Tuple.Tbl.replace t.extra key rows);
    t.overlay_rows <- t.overlay_rows - 1;
    true
  end
  else
    let i = flat_find t key tup in
    if i >= 0 && not (is_dead t i) then begin
      if Bytes.length t.dead = 0 then t.dead <- Bytes.make t.flat_rows '\000';
      Bytes.set t.dead i '\001';
      t.n_dead <- t.n_dead + 1;
      bump_dead t key;
      t.overlay_rows <- t.overlay_rows + 1;
      maybe_compact t;
      true
    end
    else false

let probe_iter t key f =
  Cost.charge_probe ();
  (match Tuple.Tbl.find_opt t.table key with
  | None -> ()
  | Some (start, len) ->
      for i = start to start + len - 1 do
        if not (is_dead t i) then f t.data (i * t.arity)
      done);
  if t.overlay_rows > 0 then List.iter (fun r -> f r 0) (extra_under t key)

let count t key =
  Cost.charge_probe ();
  if t.overlay_rows = 0 then
    match Tuple.Tbl.find_opt t.table key with
    | None -> 0
    | Some (_, len) -> len
  else
    (match Tuple.Tbl.find_opt t.table key with
    | None -> 0
    | Some (_, len) -> len - dead_under t key)
    + List.length (extra_under t key)

let semijoin rel t =
  let key_pos = Schema.positions (Relation.schema rel) t.key_vars in
  let scratch = Array.make (Array.length key_pos) 0 in
  let out = Relation.create (Relation.schema rel) in
  Relation.iter
    (fun tup ->
      Cost.charge_scan ();
      Cost.charge_probe ();
      Tuple.project_into key_pos tup scratch;
      let alive =
        if t.overlay_rows = 0 then Tuple.Tbl.mem t.table scratch
        else
          (match Tuple.Tbl.find_opt t.table scratch with
          | None -> false
          | Some (_, len) -> len - dead_under t scratch > 0)
          || extra_under t scratch <> []
      in
      if alive then Relation.add out tup)
    rel;
  out

(* [f tup src base] for each row [tup] of [rel] and each indexed row
   matching it, at [src.(base) ..]: one scan and one probe charged per
   row of [rel] *)
let iter_matches rel t f =
  let key_pos = Schema.positions (Relation.schema rel) t.key_vars in
  let scratch = Array.make (Array.length key_pos) 0 in
  Relation.iter
    (fun tup ->
      Cost.charge_scan ();
      Tuple.project_into key_pos tup scratch;
      probe_iter t scratch (f tup))
    rel

let join rel t =
  let rel_schema = Relation.schema rel in
  let extra_vars =
    List.filter
      (fun v -> not (Schema.mem v rel_schema))
      (Schema.vars t.source_schema)
  in
  let extra_pos = Schema.positions t.source_schema extra_vars in
  let n_extra = Array.length extra_pos in
  let out_schema = Schema.union rel_schema (Schema.of_list extra_vars) in
  let out = Relation.create out_schema in
  let ra = Schema.arity rel_schema in
  (* emit output rows straight from the backing array: the only
     allocation per match is the output tuple itself *)
  iter_matches rel t (fun tup src base ->
      let out_tup = Array.make (ra + n_extra) 0 in
      Array.blit tup 0 out_tup 0 ra;
      for k = 0 to n_extra - 1 do
        out_tup.(ra + k) <- src.(base + extra_pos.(k))
      done;
      Relation.add out out_tup);
  out

(* [join] and a projection in one pass: each match is written straight
   into [into] in [into]'s column order, through one scratch row, so a
   match whose projection is already there allocates nothing. *)
let join_into ?(limit = max_int) rel t ~into =
  let rel_schema = Relation.schema rel in
  (* an output column is read off the probing row (>= 0) or off column
     [-c - 1] of the indexed row *)
  let cols =
    Array.of_list
      (List.map
         (fun v ->
           if Schema.mem v rel_schema then Schema.position rel_schema v
           else -Schema.position t.source_schema v - 1)
         (Schema.vars (Relation.schema into)))
  in
  let row = Array.make (Array.length cols) 0 in
  let matches = ref 0 in
  let exception Past_limit in
  (try
     iter_matches rel t (fun tup src base ->
         incr matches;
         if !matches > limit then raise_notrace Past_limit;
         Cost.charge_scan ();
         for k = 0 to Array.length cols - 1 do
           let c = cols.(k) in
           row.(k) <- (if c >= 0 then tup.(c) else src.(base - c - 1))
         done;
         if not (Relation.mem into row) then Relation.add into (Array.copy row))
   with Past_limit -> ());
  !matches
