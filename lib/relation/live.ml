type t = {
  rel : Relation.t;
  vars : Schema.var list; (* the schema's variables, in column order *)
  mutable indexes : (Schema.var list * Index.t) list;
      (* key variables, ascending -> the index on them *)
}

let of_relation rel =
  { rel; vars = Schema.vars (Relation.schema rel); indexes = [] }

let relation t = t.rel

let add t tup =
  if Relation.mem t.rel tup then false
  else begin
    Relation.add t.rel tup;
    List.iter (fun (_, idx) -> Index.insert idx tup) t.indexes;
    true
  end

let remove t tup =
  Relation.remove t.rel tup
  && begin
       List.iter (fun (_, idx) -> ignore (Index.remove idx tup)) t.indexes;
       true
     end

(* Aggregate requests read the base on several domains at once (a
   server runs reads under a shared lock), and the rules' plans are
   built in parallel over one base, so two of them may ask for the same
   missing index: the build is re-checked and published under a lock. *)
let build_lock = Mutex.create ()

let index t key =
  match List.assoc_opt key t.indexes with
  | Some idx -> idx
  | None ->
      Mutex.protect build_lock (fun () ->
          match List.assoc_opt key t.indexes with
          | Some idx -> idx
          | None ->
              let idx = Index.build t.rel key in
              t.indexes <- (key, idx) :: t.indexes;
              idx)

(* [atoms] without the first atom physically equal to [l] *)
let rec without l = function
  | [] -> []
  | x :: rest -> if x == l then rest else x :: without l rest

(* The step planner of [join_from] and [agg_from]: from rows over [vars],
   join next the atom with the most variables already bound (the first
   on a tie), through its index on those variables, ascending.  Returns
   the atom, that key — all of the atom's variables when it joins as a
   membership test — and the atoms left after it. *)
let next_step vars = function
  | [] -> None
  | first :: _ as atoms ->
      let bound l = List.filter (fun v -> List.mem v vars) l.vars in
      let pick, key =
        List.fold_left
          (fun ((_, bk) as best) l ->
            let k = bound l in
            if List.length k > List.length bk then (l, k) else best)
          (first, bound first) atoms
      in
      Some (pick, List.sort Int.compare key, without pick atoms)

let fully_bound l key = List.compare_lengths key l.vars = 0

(* the variables of [vars] that [keep] or an atom of [rest] still needs *)
let needed vars rest ~keep =
  List.filter
    (fun v -> List.mem v keep || List.exists (fun l -> List.mem v l.vars) rest)
    vars

(* the tuples of [acc] whose projection onto [l]'s variables is a row of
   [l]: a fully bound atom joins as a membership test *)
let filter_mem acc l =
  let pos = Schema.positions (Relation.schema acc) l.vars in
  let scratch = Array.make (Array.length pos) 0 in
  let out = Relation.create (Relation.schema acc) in
  Relation.iter
    (fun tup ->
      Cost.charge_scan ();
      Cost.charge_probe ();
      Tuple.project_into pos tup scratch;
      if Relation.mem l.rel scratch then Relation.add out tup)
    acc;
  out

let join_from ?limit seed atoms ~keep =
  let check r =
    match limit with
    | Some l when Relation.cardinal r > l -> raise Relation.Too_big
    | _ -> ()
  in
  let rec go acc atoms =
    if Relation.is_empty acc then acc
    else
      match next_step (Schema.vars (Relation.schema acc)) atoms with
      | None -> acc
      | Some (pick, key, rest) ->
          let joined =
            if fully_bound pick key then filter_mem acc pick
            else Index.join acc (index pick key)
          in
          check joined;
          let vars = Schema.vars (Relation.schema joined) in
          let kept = needed vars rest ~keep in
          go
            (if List.length kept < List.length vars then
               Relation.project joined kept
             else joined)
            rest
  in
  let acc = go seed atoms in
  if Relation.is_empty acc then Relation.create (Schema.of_list keep)
  else begin
    let out = Relation.project acc keep in
    check out;
    out
  end

type semiring = {
  zero : int;
  one : int;
  add : int -> int -> int;
  mul : int -> int -> int;
  default : int option;
}

(* ⊕-merge [v] into the row [scratch] of an annotated intermediate.  A
   row's annotation is a cell updated in place, so the scratch buffer is
   copied only when it becomes a new row. *)
let merge sr rows scratch v =
  match Tuple.Tbl.find_opt rows scratch with
  | Some cell -> cell := sr.add !cell v
  | None ->
      Cost.charge_tuple ();
      Tuple.Tbl.add rows (Array.copy scratch) (ref v)

(* the annotation of [l]'s row at [src.(base) ..] *)
let weight sr l =
  match sr.default with
  | None -> fun _ _ -> sr.one
  | Some default ->
      let row = Array.make (List.length l.vars) 0 in
      fun src base ->
        Array.blit src base row 0 (Array.length row);
        Relation.annotation l.rel ~default row

(* One join step of [agg_from]: every row over [vars] times the matching
   rows of [pick], kept on the variables [rest] still needs. *)
let agg_step sr vars rows (pick, key, rest) =
  let s = Schema.of_list vars in
  let fresh = List.filter (fun v -> not (Schema.mem v s)) pick.vars in
  let out_vars = needed (vars @ fresh) rest ~keep:[] in
  (* an output column is read off the accumulated row (>= 0) or off
     column [-c - 1] of the atom's row *)
  let src =
    Array.of_list
      (List.map
         (fun v ->
           if Schema.mem v s then Schema.position s v
           else -Schema.position (Relation.schema pick.rel) v - 1)
         out_vars)
  in
  let n = Array.length src in
  (* [matches tup f] calls [f] on each row of [pick] that agrees with the
     accumulated row [tup]; a fully bound atom is a membership test *)
  let matches =
    if fully_bound pick key then begin
      let pos = Schema.positions s pick.vars in
      let row = Array.make (Array.length pos) 0 in
      fun tup f ->
        Cost.charge_probe ();
        Tuple.project_into pos tup row;
        if Relation.mem pick.rel row then f row 0
    end
    else begin
      let idx = index pick key and pos = Schema.positions s key in
      let probe = Array.make (Array.length pos) 0 in
      fun tup f ->
        Tuple.project_into pos tup probe;
        Index.probe_iter idx probe f
    end
  in
  let w = weight sr pick in
  let out = Tuple.Tbl.create 16 and scratch = Array.make n 0 in
  Tuple.Tbl.iter
    (fun tup v ->
      Cost.charge_scan ();
      matches tup (fun m base ->
          Cost.charge_scan ();
          for j = 0 to n - 1 do
            let c = src.(j) in
            scratch.(j) <- (if c >= 0 then tup.(c) else m.(base - c - 1))
          done;
          merge sr out scratch (sr.mul !v (w m base))))
    rows;
  (out_vars, out)

let agg_from sr seed atoms =
  let rows = Tuple.Tbl.create 16 in
  Relation.iter (fun tup -> Tuple.Tbl.replace rows tup (ref sr.one)) seed;
  let rec go vars rows atoms =
    if Tuple.Tbl.length rows = 0 then rows
    else
      match next_step vars atoms with
      | None -> rows
      | Some ((_, _, rest) as step) ->
          let vars, rows = agg_step sr vars rows step in
          go vars rows rest
  in
  Tuple.Tbl.fold
    (fun _ v acc -> sr.add acc !v)
    (go (Schema.vars (Relation.schema seed)) rows atoms)
    sr.zero

exception Found

(* [binding] as an association list from variables to values: a search
   binds at most a few variables, so a lookup is a short walk and an
   extension is a cons that backtracking drops for free *)
let rec lookup v = function
  | [] -> None
  | (w, x) :: rest -> if w = v then Some x else lookup v rest

(* a variable bound twice to different values *)
let rec conflicting = function
  | [] -> false
  | (v, x) :: rest ->
      (match lookup v rest with Some y -> y <> x | None -> false)
      || conflicting rest

let values binding vs =
  let a = Array.make (List.length vs) 0 in
  List.iteri (fun i v -> a.(i) <- Option.get (lookup v binding)) vs;
  a

(* the matches of [l] under [binding], and its bound variables
   ascending — [None] when all are bound and the count is a membership
   test *)
let matches binding l =
  let key = List.filter (fun v -> Option.is_some (lookup v binding)) l.vars in
  if List.compare_lengths key l.vars = 0 then begin
    Cost.charge_probe ();
    ((if Relation.mem l.rel (values binding l.vars) then 1 else 0), None)
  end
  else
    let key = List.sort Int.compare key in
    (Index.count (index l key) (values binding key), Some key)

(* the atom with the fewest matches; [None] as soon as one has none *)
let rec fewest binding ((bn, _, _) as best) = function
  | [] -> Some best
  | l :: rest -> (
      match matches binding l with
      | 0, _ -> None
      | n, key -> fewest binding (if n < bn then (n, l, key) else best) rest)

let rec search binding = function
  | [] -> true
  | first :: _ as atoms -> (
      match fewest binding (max_int, first, None) atoms with
      | None -> false
      | Some (_, l, None) -> search binding (without l atoms)
      | Some (_, l, Some key) -> (
          let rest = without l atoms in
          let free =
            List.filter_map
              (fun (k, v) ->
                if Option.is_none (lookup v binding) then Some (v, k) else None)
              (List.mapi (fun k v -> (k, v)) l.vars)
          in
          try
            Index.probe_iter (index l key) (values binding key)
              (fun src base ->
                Cost.charge_scan ();
                let extended =
                  List.fold_left
                    (fun b (v, k) -> (v, src.(base + k)) :: b)
                    binding free
                in
                if search extended rest then raise Found);
            false
          with Found -> true))

let exists binding atoms = (not (conflicting binding)) && search binding atoms
