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
    List.iter (fun (_, idx) -> ignore (Index.insert idx tup)) t.indexes;
    true
  end

let remove t tup =
  Relation.remove t.rel tup
  && begin
       List.iter (fun (_, idx) -> ignore (Index.remove idx tup)) t.indexes;
       true
     end

(* the index on [key] (ascending), built on first use *)
let index t key =
  match List.assoc_opt key t.indexes with
  | Some idx -> idx
  | None ->
      let idx = Index.build t.rel key in
      t.indexes <- (key, idx) :: t.indexes;
      idx

(* [atoms] without the first atom physically equal to [l] *)
let rec without l = function
  | [] -> []
  | x :: rest -> if x == l then rest else x :: without l rest

exception Too_big

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
    | Some l when Relation.cardinal r > l -> raise Too_big
    | _ -> ()
  in
  let rec go acc = function
    | [] -> acc
    | _ when Relation.is_empty acc -> acc
    | first :: _ as atoms ->
        let s = Relation.schema acc in
        let bound l = List.filter (fun v -> Schema.mem v s) l.vars in
        let pick, key =
          List.fold_left
            (fun ((_, bk) as best) l ->
              let k = bound l in
              if List.length k > List.length bk then (l, k) else best)
            (first, bound first) atoms
        in
        let joined =
          if List.compare_lengths key pick.vars = 0 then
            filter_mem acc pick
          else Index.join acc (index pick (List.sort Int.compare key))
        in
        check joined;
        let rest = without pick atoms in
        let needed v =
          List.mem v keep || List.exists (fun l -> List.mem v l.vars) rest
        in
        let vars = Schema.vars (Relation.schema joined) in
        let kept = List.filter needed vars in
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
