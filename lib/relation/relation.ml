(* The optional annotation column mirrors the flat bucket layout of the
   join indexes: semiring values live in one growable int array and a
   tuple -> slot index, so annotated relations pay one array cell per
   tuple instead of a boxed option per entry. *)
type ann = { mutable slots : int array; mutable used : int; idx : int Tuple.Tbl.t }

type t = {
  schema : Schema.t;
  data : unit Tuple.Tbl.t;
  mutable ann : ann option;
}

let create schema = { schema; data = Tuple.Tbl.create 64; ann = None }
let schema t = t.schema
let cardinal t = Tuple.Tbl.length t.data
let is_empty t = cardinal t = 0
let mem t tup = Tuple.Tbl.mem t.data tup

let ann_of t =
  match t.ann with
  | Some a -> a
  | None ->
      let a = { slots = Array.make 16 0; used = 0; idx = Tuple.Tbl.create 16 } in
      t.ann <- Some a;
      a

let annotate t tup v =
  if not (Tuple.Tbl.mem t.data tup) then
    invalid_arg "Relation.annotate: tuple not present";
  let a = ann_of t in
  match Tuple.Tbl.find_opt a.idx tup with
  | Some slot -> a.slots.(slot) <- v
  | None ->
      if a.used = Array.length a.slots then begin
        let bigger = Array.make (2 * a.used) 0 in
        Array.blit a.slots 0 bigger 0 a.used;
        a.slots <- bigger
      end;
      a.slots.(a.used) <- v;
      Tuple.Tbl.add a.idx tup a.used;
      a.used <- a.used + 1

let annotation t ~default tup =
  match t.ann with
  | None -> default
  | Some a -> (
      match Tuple.Tbl.find_opt a.idx tup with
      | Some slot -> a.slots.(slot)
      | None -> default)

let annotation_opt t tup =
  match t.ann with
  | None -> None
  | Some a -> (
      match Tuple.Tbl.find_opt a.idx tup with
      | Some slot -> Some a.slots.(slot)
      | None -> None)

let add t tup =
  if Tuple.arity tup <> Schema.arity t.schema then
    invalid_arg "Relation.add: arity mismatch";
  if not (Tuple.Tbl.mem t.data tup) then begin
    Cost.charge_tuple ();
    Tuple.Tbl.add t.data tup ()
  end

let remove t tup =
  if Tuple.arity tup <> Schema.arity t.schema then
    invalid_arg "Relation.remove: arity mismatch";
  if Tuple.Tbl.mem t.data tup then begin
    Cost.charge_scan ();
    Tuple.Tbl.remove t.data tup;
    (* the slot itself stays allocated; only the index entry goes, so a
       re-added tuple starts from the annotation default again *)
    (match t.ann with Some a -> Tuple.Tbl.remove a.idx tup | None -> ());
    true
  end
  else false

let of_list schema tuples =
  let t = create schema in
  List.iter (add t) tuples;
  t

let iter f t = Tuple.Tbl.iter (fun tup () -> f tup) t.data
let fold f t init = Tuple.Tbl.fold (fun tup () acc -> f tup acc) t.data init
let to_list t = fold List.cons t []

let copy t =
  Cost.charge_tuples (cardinal t);
  {
    t with
    data = Tuple.Tbl.copy t.data;
    ann =
      Option.map
        (fun a -> { a with slots = Array.copy a.slots; idx = Tuple.Tbl.copy a.idx })
        t.ann;
  }

let singleton schema tup =
  let t = create schema in
  add t tup;
  t

let reorder_positions ~from ~into =
  (* positions in [from] of the variables of [into], so that projecting a
     [from]-tuple yields an [into]-tuple *)
  Schema.positions from (Schema.vars into)

let equal a b =
  Schema.equal a.schema b.schema
  && cardinal a = cardinal b
  &&
  let pos = reorder_positions ~from:(schema a) ~into:(schema b) in
  fold (fun tup ok -> ok && mem b (Tuple.project pos tup)) a true

(* A projection onto all of the schema, in its order, maps each tuple to
   itself, so it copies the table: still one scan and one tuple charged
   per tuple, but no tuple is built or hashed again.  2PP plan steps
   that keep every variable take this path on every request. *)
let project t vs =
  let out_schema = Schema.of_list vs in
  let pos = Schema.positions t.schema vs in
  if pos = Array.init (Schema.arity t.schema) Fun.id then begin
    Cost.charge_scans (cardinal t);
    Cost.charge_tuples (cardinal t);
    { schema = out_schema; data = Tuple.Tbl.copy t.data; ann = None }
  end
  else begin
    let out = create out_schema in
    iter
      (fun tup ->
        Cost.charge_scan ();
        add out (Tuple.project pos tup))
      t;
    out
  end

let project_into t ~into =
  let pos = reorder_positions ~from:t.schema ~into:into.schema in
  let scratch = Array.make (Array.length pos) 0 in
  iter
    (fun tup ->
      Cost.charge_scan ();
      Tuple.project_into pos tup scratch;
      if not (mem into scratch) then add into (Array.copy scratch))
    t

(* A one-shot flat hash index: common-variable key -> a contiguous
   (start row, row count) range into a row-major int array.  Build
   allocates one key tuple per distinct key and nothing per row; probe
   loops reuse a scratch key buffer, so the join side allocates only its
   output tuples. *)
let build_flat_index rel key_positions =
  let arity = Schema.arity rel.schema in
  let n = cardinal rel in
  let counts = Tuple.Tbl.create (max 16 n) in
  iter
    (fun tup ->
      Cost.charge_scan ();
      let key = Tuple.project key_positions tup in
      match Tuple.Tbl.find_opt counts key with
      | Some r -> incr r
      | None -> Tuple.Tbl.add counts key (ref 1))
    rel;
  let table = Tuple.Tbl.create (max 16 (Tuple.Tbl.length counts)) in
  let next = ref 0 in
  Tuple.Tbl.iter
    (fun key r ->
      let c = !r in
      Tuple.Tbl.add table key (!next, c);
      r := !next;
      next := !next + c)
    counts;
  let data = Array.make (n * arity) 0 in
  Tuple.Tbl.iter
    (fun tup () ->
      let cursor = Tuple.Tbl.find counts (Tuple.project key_positions tup) in
      Array.blit tup 0 data (!cursor * arity) arity;
      incr cursor)
    rel.data;
  (table, data)

(* key set of [rel] under [key_positions]; probing reuses the caller's
   scratch buffer, building allocates only one tuple per distinct key *)
let build_key_set rel key_positions =
  let keys = Tuple.Tbl.create (max 16 (cardinal rel)) in
  let scratch = Array.make (Array.length key_positions) 0 in
  iter
    (fun tb ->
      Cost.charge_scan ();
      Tuple.project_into key_positions tb scratch;
      if not (Tuple.Tbl.mem keys scratch) then
        Tuple.Tbl.add keys (Array.copy scratch) ())
    rel;
  keys

exception Too_big

let natural_join ?(limit = max_int) a b =
  let common = Schema.inter a.schema b.schema in
  let out_schema = Schema.union a.schema b.schema in
  let key_a = Schema.positions a.schema common in
  let key_b = Schema.positions b.schema common in
  let extra_b =
    (* positions in b of the variables that only b contributes *)
    Schema.positions b.schema
      (List.filter (fun v -> not (Schema.mem v a.schema)) (Schema.vars b.schema))
  in
  let table, data = build_flat_index b key_b in
  let arity_b = Schema.arity b.schema in
  let n_extra = Array.length extra_b in
  let ra = Schema.arity a.schema in
  let scratch = Array.make (Array.length key_a) 0 in
  let out = create out_schema in
  iter
    (fun ta ->
      Cost.charge_scan ();
      Cost.charge_probe ();
      Tuple.project_into key_a ta scratch;
      match Tuple.Tbl.find_opt table scratch with
      | None -> ()
      | Some (start, len) ->
          for i = 0 to len - 1 do
            let base = (start + i) * arity_b in
            let out_tup = Array.make (ra + n_extra) 0 in
            Array.blit ta 0 out_tup 0 ra;
            for k = 0 to n_extra - 1 do
              out_tup.(ra + k) <- data.(base + extra_b.(k))
            done;
            add out out_tup;
            if cardinal out > limit then raise Too_big
          done)
    a;
  out

let semijoin a b =
  let common = Schema.inter a.schema b.schema in
  let key_a = Schema.positions a.schema common in
  let key_b = Schema.positions b.schema common in
  let keys = build_key_set b key_b in
  let scratch = Array.make (Array.length key_a) 0 in
  let out = create a.schema in
  iter
    (fun ta ->
      Cost.charge_scan ();
      Cost.charge_probe ();
      Tuple.project_into key_a ta scratch;
      if Tuple.Tbl.mem keys scratch then add out ta)
    a;
  out

let union a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Relation.union: schemas differ";
  let out = copy a in
  let pos = reorder_positions ~from:b.schema ~into:a.schema in
  iter
    (fun tb ->
      Cost.charge_scan ();
      add out (Tuple.project pos tb))
    b;
  out

(* Tuple.Tbl, not the polymorphic Hashtbl: the polymorphic hash samples
   only a prefix of wide tuples (see Tuple.hash), which degenerates the
   degree table to a few buckets on high-arity keys.  The scratch buffer
   keeps the counting pass allocation-free except one tuple per distinct
   key. *)
let max_degree t vs =
  let pos = Schema.positions t.schema vs in
  let counts = Tuple.Tbl.create (max 16 (cardinal t)) in
  let scratch = Array.make (Array.length pos) 0 in
  iter
    (fun tup ->
      Tuple.project_into pos tup scratch;
      match Tuple.Tbl.find_opt counts scratch with
      | Some r -> incr r
      | None -> Tuple.Tbl.add counts (Array.copy scratch) (ref 1))
    t;
  Tuple.Tbl.fold (fun _ r acc -> max !r acc) counts 0

module C = Stt_store.Codec

(* schema variables, then the rows sorted so the column-major delta
   codec sees slowly-changing columns and equal relations write equal
   bytes *)
let write e t =
  C.write_list e (C.write_uint e) (Schema.vars t.schema);
  C.write_rows e
    ~arity:(Schema.arity t.schema)
    (List.sort Tuple.compare (to_list t))

let read d =
  let vars = C.read_list d (fun () -> C.read_uint d) in
  let t = create (C.guard "relation schema" (fun () -> Schema.of_list vars)) in
  List.iter (add t) (C.read_rows d ~arity:(List.length vars));
  t
