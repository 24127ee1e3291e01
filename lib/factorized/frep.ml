open Stt_relation
module C = Stt_store.Codec

(* One DAG node: a union of singleton runs for the variable at [level].
   [vals] is strictly ascending; [kids.(k)] is the subtree every tuple
   continuing [vals.(k)] shares.  The terminal (empty run at level =
   arity) is node id 0; hash-consing makes equal subtrees one node, and
   construction interns children before parents, so every child id is
   smaller than its parent's. *)
type node = { level : int; vals : int array; kids : int array }

type t = {
  schema : Schema.t; (* level order: the probe prefix first *)
  prefix_len : int;
  nodes : node array; (* id 0 = terminal; children precede parents *)
  root : int; (* -1 iff the relation is empty *)
  rows : int;
  size : int; (* Σ run lengths — stored singletons *)
}

let schema t = t.schema
let rows t = t.rows
let size t = t.size

let key_vars t =
  List.filteri (fun i _ -> i < t.prefix_len) (Schema.vars t.schema)

(* ------------------------------------------------------------------ *)
(* construction                                                         *)
(* ------------------------------------------------------------------ *)

(* suffix variables ordered by ascending distinct-value count (ties by
   variable id): slowly-varying columns sit near the root, where one
   run prefix covers many rows and the deeper, wider columns land in
   shared subtrees *)
let suffix_order rel vars =
  let counted =
    List.map
      (fun v ->
        let pos = Schema.position (Relation.schema rel) v in
        let seen = Hashtbl.create 64 in
        Relation.iter
          (fun tup ->
            if not (Hashtbl.mem seen tup.(pos)) then
              Hashtbl.add seen tup.(pos) ())
          rel;
        (Hashtbl.length seen, v))
      vars
  in
  List.map snd (List.sort compare counted)

let of_relation ?(prefix = []) rel =
  let rel_schema = Relation.schema rel in
  let arity = Schema.arity rel_schema in
  List.iter
    (fun v ->
      if not (Schema.mem v rel_schema) then
        invalid_arg "Frep.of_relation: prefix variable not in schema")
    prefix;
  if List.length (List.sort_uniq compare prefix) <> List.length prefix then
    invalid_arg "Frep.of_relation: duplicate prefix variable";
  let suffix =
    suffix_order rel
      (List.filter
         (fun v -> not (List.mem v prefix))
         (Schema.vars rel_schema))
  in
  let order = prefix @ suffix in
  let pos = Schema.positions rel_schema order in
  (* the one-time factorize cost: one scan per input row *)
  let sorted =
    let acc = ref [] in
    Relation.iter
      (fun tup ->
        Cost.charge_scan ();
        acc := Tuple.project pos tup :: !acc)
      rel;
    List.sort Tuple.compare !acc
  in
  let arr = Array.of_list sorted in
  let nodes = ref [] (* newest first *) in
  let n_nodes = ref 0 in
  let memo : (int * int array * int array, int) Hashtbl.t =
    Hashtbl.create 256
  in
  let intern level vals kids =
    match Hashtbl.find_opt memo (level, vals, kids) with
    | Some id -> id
    | None ->
        let id = !n_nodes in
        incr n_nodes;
        nodes := { level; vals; kids } :: !nodes;
        Hashtbl.add memo (level, vals, kids) id;
        id
  in
  let terminal = intern arity [||] [||] in
  let rec build level lo hi =
    if level = arity then terminal
    else begin
      (* rows are sorted, so each distinct value is a contiguous run *)
      let vals = ref [] and kids = ref [] in
      let i = ref lo in
      while !i < hi do
        let v = arr.(!i).(level) in
        let j = ref !i in
        while !j < hi && arr.(!j).(level) = v do
          incr j
        done;
        let kid = build (level + 1) !i !j in
        vals := v :: !vals;
        kids := kid :: !kids;
        i := !j
      done;
      intern level
        (Array.of_list (List.rev !vals))
        (Array.of_list (List.rev !kids))
    end
  in
  let root = if Array.length arr = 0 then -1 else build 0 0 (Array.length arr) in
  let nodes = Array.of_list (List.rev !nodes) in
  let size = Array.fold_left (fun acc n -> acc + Array.length n.vals) 0 nodes in
  {
    schema = Schema.of_list order;
    prefix_len = List.length prefix;
    nodes;
    root;
    rows = Array.length arr;
    size;
  }

(* ------------------------------------------------------------------ *)
(* enumeration and probing                                              *)
(* ------------------------------------------------------------------ *)

let arity t = Schema.arity t.schema

(* binary search a run for [v]; the kid id or -1 *)
let find_kid n v =
  let lo = ref 0 and hi = ref (Array.length n.vals - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare n.vals.(mid) v in
    if c = 0 then begin
      found := n.kids.(mid);
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* walk the key down the prefix levels; the node under it or -1 *)
let descend t key =
  let rec go id lvl =
    if lvl = Array.length key then id
    else
      match find_kid t.nodes.(id) key.(lvl) with
      | -1 -> -1
      | kid -> go kid (lvl + 1)
  in
  if t.root < 0 then -1 else go t.root 0

(* DFS under [id], [scratch] holding the values of levels above it *)
let rec dfs t id scratch ~emit =
  let n = t.nodes.(id) in
  if n.level = arity t then emit scratch
  else
    for k = 0 to Array.length n.vals - 1 do
      scratch.(n.level) <- n.vals.(k);
      dfs t n.kids.(k) scratch ~emit
    done

let enum_iter t f =
  Cost.charge_probe ();
  if t.root >= 0 then begin
    let scratch = Array.make (arity t) 0 in
    dfs t t.root scratch ~emit:(fun s ->
        Cost.charge_tuple ();
        f s)
  end

let probe_iter t key f =
  if Tuple.arity key <> t.prefix_len then
    invalid_arg "Frep.probe_iter: key arity mismatch";
  Cost.charge_probe ();
  match descend t key with
  | -1 -> ()
  | id ->
      let scratch = Array.make (arity t) 0 in
      Array.blit key 0 scratch 0 t.prefix_len;
      dfs t id scratch ~emit:f

let probe_mem t key =
  if Tuple.arity key <> t.prefix_len then
    invalid_arg "Frep.probe_mem: key arity mismatch";
  Cost.charge_probe ();
  descend t key >= 0

(* charge-identical to [Index.semijoin]: scan + probe per input row,
   output rows charged by [Relation.add] *)
let semijoin rel t =
  let key_pos = Schema.positions (Relation.schema rel) (key_vars t) in
  let scratch = Array.make t.prefix_len 0 in
  let out = Relation.create (Relation.schema rel) in
  Relation.iter
    (fun tup ->
      Cost.charge_scan ();
      Cost.charge_probe ();
      Tuple.project_into key_pos tup scratch;
      if descend t scratch >= 0 then Relation.add out tup)
    rel;
  out

(* charge-identical to [Index.join]: scan + probe per left row, one
   output tuple charged per emitted match (via [Relation.add]) *)
let join rel t =
  let rel_schema = Relation.schema rel in
  let key_pos = Schema.positions rel_schema (key_vars t) in
  let extra_vars =
    List.filter (fun v -> not (Schema.mem v rel_schema)) (Schema.vars t.schema)
  in
  (* key vars are all in [rel], so the extras live in suffix levels *)
  let extra_lvls =
    Array.of_list (List.map (Schema.position t.schema) extra_vars)
  in
  let n_extra = Array.length extra_lvls in
  let out_schema = Schema.union rel_schema (Schema.of_list extra_vars) in
  let out = Relation.create out_schema in
  let ra = Schema.arity rel_schema in
  let kscratch = Array.make t.prefix_len 0 in
  let sscratch = Array.make (arity t) 0 in
  Relation.iter
    (fun tup ->
      Cost.charge_scan ();
      Cost.charge_probe ();
      Tuple.project_into key_pos tup kscratch;
      match descend t kscratch with
      | -1 -> ()
      | id ->
          dfs t id sscratch ~emit:(fun s ->
              let out_tup = Array.make (ra + n_extra) 0 in
              Array.blit tup 0 out_tup 0 ra;
              for k = 0 to n_extra - 1 do
                out_tup.(ra + k) <- s.(extra_lvls.(k))
              done;
              Relation.add out out_tup))
    rel;
  out

let to_relation t =
  Cost.with_counting false (fun () ->
      let out = Relation.create t.schema in
      if t.root >= 0 then begin
        let scratch = Array.make (arity t) 0 in
        dfs t t.root scratch ~emit:(fun s -> Relation.add out (Array.copy s))
      end;
      out)

(* ------------------------------------------------------------------ *)
(* wire codec                                                           *)
(* ------------------------------------------------------------------ *)

let codec_version = 1

let write e t =
  C.write_u8 e codec_version;
  C.write_uint e (arity t);
  C.write_list e (fun v -> C.write_uint e v) (Schema.vars t.schema);
  C.write_uint e t.prefix_len;
  C.write_uint e t.rows;
  C.write_uint e (t.root + 1);
  C.write_list e
    (fun n ->
      C.write_uint e n.level;
      C.write_uint e (Array.length n.vals);
      (* runs are strictly ascending: first value zigzag, then gaps *)
      Array.iteri
        (fun k v ->
          if k = 0 then C.write_int e v
          else C.write_uint e (v - n.vals.(k - 1) - 1))
        n.vals;
      Array.iter (fun kid -> C.write_uint e kid) n.kids)
    (Array.to_list t.nodes)

(* a run length is read before its payload; cap it so a corrupted
   length cannot allocate unboundedly before the byte shortage shows *)
let max_run = 1 lsl 24

let read_raw d =
  let v = C.read_u8 d in
  if v <> codec_version then C.corrupt "frep: codec version %d" v;
  let ar = C.read_uint d in
  let vars = C.read_list d (fun () -> C.read_uint d) in
  if List.length vars <> ar then C.corrupt "frep: %d vars for arity %d"
      (List.length vars) ar;
  let schema =
    try Schema.of_list vars
    with Invalid_argument _ -> C.corrupt "frep: duplicate schema variable"
  in
  let prefix_len = C.read_uint d in
  if prefix_len > ar then C.corrupt "frep: prefix %d exceeds arity %d" prefix_len ar;
  let stored_rows = C.read_uint d in
  let root = C.read_uint d - 1 in
  let next_id = ref 0 in
  let nodes =
    C.read_list d (fun () ->
        let id = !next_id in
        incr next_id;
        let level = C.read_uint d in
        let len = C.read_uint d in
        if id = 0 then begin
          if level <> ar || len <> 0 then C.corrupt "frep: node 0 not terminal"
        end
        else if level >= ar then C.corrupt "frep: inner node at level %d" level
        else if len = 0 then C.corrupt "frep: empty run at node %d" id;
        if len > max_run then C.corrupt "frep: run of %d at node %d" len id;
        let vals = Array.make len 0 in
        for k = 0 to len - 1 do
          vals.(k) <-
            (if k = 0 then C.read_int d else vals.(k - 1) + 1 + C.read_uint d)
        done;
        let kids = Array.make len 0 in
        for k = 0 to len - 1 do
          let kid = C.read_uint d in
          if kid >= id then C.corrupt "frep: forward child %d at node %d" kid id;
          kids.(k) <- kid
        done;
        { level; vals; kids })
  in
  let nodes = Array.of_list nodes in
  let n = Array.length nodes in
  if n = 0 then C.corrupt "frep: no nodes";
  (* child levels step by one; the terminal closes every path *)
  Array.iteri
    (fun id nd ->
      if id > 0 then
        Array.iter
          (fun kid ->
            if nodes.(kid).level <> nd.level + 1 then
              C.corrupt "frep: child level skew at node %d" id)
          nd.kids)
    nodes;
  if root < -1 || root >= n then C.corrupt "frep: root %d out of range" root;
  if root >= 0 && nodes.(root).level <> 0 then C.corrupt "frep: root not level 0";
  (* every node must be live: an unreachable node would inflate [size] *)
  let reached = Array.make n false in
  let rec reach id =
    if not reached.(id) then begin
      reached.(id) <- true;
      Array.iter reach nodes.(id).kids
    end
  in
  if root >= 0 then reach root;
  reached.(0) <- true (* the terminal is always interned *);
  Array.iteri
    (fun id r -> if not r then C.corrupt "frep: unreachable node %d" id)
    reached;
  (* re-derive the cardinality and reject a mismatch: a decoded value
     that loads at all is structurally sound *)
  let counts = Array.make n 0 in
  counts.(0) <- 1;
  for id = 1 to n - 1 do
    counts.(id) <-
      Array.fold_left (fun acc kid -> acc + counts.(kid)) 0 nodes.(id).kids
  done;
  let derived = if root < 0 then 0 else counts.(root) in
  if derived <> stored_rows then
    C.corrupt "frep: %d rows stored, %d derived" stored_rows derived;
  let size = Array.fold_left (fun acc nd -> acc + Array.length nd.vals) 0 nodes in
  { schema; prefix_len; nodes; root; rows = stored_rows; size }

let read d =
  try read_raw d with C.Short what -> C.corrupt "frep: truncated at %s" what

let encode t =
  let e = C.encoder () in
  write e t;
  C.contents e

let decode s =
  let d = C.decoder s in
  let t = read d in
  C.expect_end d "frep";
  t
