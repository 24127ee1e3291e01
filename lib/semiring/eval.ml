(* Annotated sum-product evaluation over whole relations: the offline
   side of aggregates.

   A factor is a relation whose tuples carry semiring values.  The
   aggregate table over the access variables is computed by greedy
   variable elimination over the base-atom factors.  A semijoin
   reduction pass runs first — any factor row that matches nothing in a
   neighbouring factor contributes nothing to the flat join, so dropping
   it is sound and keeps the intermediate factors small (the Yannakakis
   idea, applied to the factor set itself rather than to any one PMTD's
   views, whose per-decomposition answer sets may be incomplete in
   isolation).  A request that misses the table is answered online from
   its own rows ([Stt_relation.Live.agg_from]), not here.

   Costs mirror Stt_relation: one scan per input row visited, one probe
   per hash lookup, one tuple per materialized output row. *)

open Stt_relation

type factor = { schema : Schema.t; vals : int Tuple.Tbl.t }

let cardinal f = Tuple.Tbl.length f.vals

let of_relation k rel =
  let default = Semiring.default_annot k in
  (* COUNT counts derivations: every tuple contributes 1 regardless of
     any stored weight column *)
  let annot =
    match k with
    | Semiring.Count -> fun _ -> 1
    | _ -> fun tup -> Relation.annotation rel ~default tup
  in
  let vals = Tuple.Tbl.create (max 16 (Relation.cardinal rel)) in
  Relation.iter
    (fun tup ->
      Cost.charge_scan ();
      Tuple.Tbl.replace vals tup (annot tup))
    rel;
  { schema = Relation.schema rel; vals }

let of_request k q_a =
  let one = Semiring.one k in
  let vals = Tuple.Tbl.create (max 16 (Relation.cardinal q_a)) in
  Relation.iter
    (fun tup ->
      Cost.charge_scan ();
      Tuple.Tbl.replace vals tup one)
    q_a;
  { schema = Relation.schema q_a; vals }

(* ⊕-merge an annotated row into a factor's table.  [tup] is a caller's
   scratch buffer, so it must never be installed as a table key:
   [Hashtbl.replace] rebinds under the {e new} key object, and the
   caller's next [project_into] would corrupt it in place. *)
let merge_row k vals tup v =
  match Tuple.Tbl.find_opt vals tup with
  | Some prior -> Tuple.Tbl.replace vals (Array.copy tup) (Semiring.add k prior v)
  | None ->
      Cost.charge_tuple ();
      Tuple.Tbl.add vals (Array.copy tup) v

(* annotated hash join: product of annotations on matching rows; on
   disjoint schemas this degrades to the (scaled) cartesian product *)
let join k a b =
  let small, big = if cardinal a <= cardinal b then (a, b) else (b, a) in
  let common = Schema.inter big.schema small.schema in
  let out_schema = Schema.union big.schema small.schema in
  let key_big = Schema.positions big.schema common in
  let key_small = Schema.positions small.schema common in
  let extra =
    List.filter (fun v -> not (Schema.mem v big.schema)) (Schema.vars small.schema)
  in
  let extra_pos = Schema.positions small.schema extra in
  (* bucket the smaller side by join key *)
  let buckets = Tuple.Tbl.create (max 16 (cardinal small)) in
  Tuple.Tbl.iter
    (fun tup v ->
      Cost.charge_scan ();
      let key = Tuple.project key_small tup in
      let row = (Tuple.project extra_pos tup, v) in
      match Tuple.Tbl.find_opt buckets key with
      | Some l -> l := row :: !l
      | None -> Tuple.Tbl.add buckets key (ref [ row ]))
    small.vals;
  let vals = Tuple.Tbl.create (max 16 (cardinal big)) in
  let ra = Schema.arity big.schema and n_extra = List.length extra in
  let scratch = Array.make (Array.length key_big) 0 in
  let out = Array.make (ra + n_extra) 0 in
  Tuple.Tbl.iter
    (fun tup v ->
      Cost.charge_scan ();
      Cost.charge_probe ();
      Tuple.project_into key_big tup scratch;
      match Tuple.Tbl.find_opt buckets scratch with
      | None -> ()
      | Some rows ->
          Array.blit tup 0 out 0 ra;
          List.iter
            (fun (ext, w) ->
              Array.blit ext 0 out ra n_extra;
              merge_row k vals out (Semiring.mul k v w))
            !rows)
    big.vals;
  { schema = out_schema; vals }

(* keep only [vs] (⊕-merging collapsed rows) *)
let project k f vs =
  let out_schema = Schema.of_list vs in
  let pos = Schema.positions f.schema vs in
  let vals = Tuple.Tbl.create (max 16 (cardinal f)) in
  let scratch = Array.make (Array.length pos) 0 in
  Tuple.Tbl.iter
    (fun tup v ->
      Cost.charge_scan ();
      Tuple.project_into pos tup scratch;
      merge_row k vals scratch v)
    f.vals;
  { schema = out_schema; vals }

(* drop the rows of [f] that match nothing in [g] on the common vars;
   annotations are untouched (this is a filter, not a combine) *)
let semijoin f g =
  match Schema.inter f.schema g.schema with
  | [] -> f
  | common ->
      let key_f = Schema.positions f.schema common in
      let key_g = Schema.positions g.schema common in
      let keys = Tuple.Tbl.create (max 16 (cardinal g)) in
      let scratch_g = Array.make (Array.length key_g) 0 in
      Tuple.Tbl.iter
        (fun tup _ ->
          Cost.charge_scan ();
          Tuple.project_into key_g tup scratch_g;
          if not (Tuple.Tbl.mem keys scratch_g) then
            Tuple.Tbl.add keys (Array.copy scratch_g) ())
        g.vals;
      let vals = Tuple.Tbl.create (max 16 (cardinal f)) in
      let scratch = Array.make (Array.length key_f) 0 in
      Tuple.Tbl.iter
        (fun tup v ->
          Cost.charge_scan ();
          Cost.charge_probe ();
          Tuple.project_into key_f tup scratch;
          if Tuple.Tbl.mem keys scratch then Tuple.Tbl.add vals tup v)
        f.vals;
      { f with vals }

(* one full reduction sweep: every factor filtered by every neighbour *)
let reduce factors =
  List.map
    (fun f -> List.fold_left (fun f g -> if f == g then f else semijoin f g) f factors)
    factors

(* Greedy elimination: repeatedly pick the variable whose incident
   factors are smallest, join them and project the variable away.  Ends
   with every factor's schema a subset of [keep]. *)
let eliminate k factors ~keep =
  let keep_set = keep in
  let rec next_var factors =
    let candidates = Hashtbl.create 16 in
    List.iter
      (fun f ->
        List.iter
          (fun v ->
            if not (List.mem v keep_set) then
              Hashtbl.replace candidates v
                (cardinal f
                + Option.value ~default:0 (Hashtbl.find_opt candidates v)))
          (Schema.vars f.schema))
      factors;
    Hashtbl.fold
      (fun v w best ->
        match best with
        | Some (_, bw) when bw <= w -> best
        | _ -> Some (v, w))
      candidates None
  and loop factors =
    match next_var factors with
    | None -> factors
    | Some (v, _) ->
        let with_v, rest =
          List.partition (fun f -> Schema.mem v f.schema) factors
        in
        let joined =
          match with_v with
          | [] -> assert false
          | f :: tl -> List.fold_left (join k) f tl
        in
        let vs = List.filter (fun x -> x <> v) (Schema.vars joined.schema) in
        loop (project k joined vs :: rest)
  in
  loop factors

(* Precompute the aggregate table over the access variables: eliminate
   everything else, then join the residual factors into one map
   access-tuple → value (rows reordered into [access] column order). *)
let table k factors ~access =
  let keep = Schema.vars access in
  match eliminate k (reduce factors) ~keep with
  | [] -> Tuple.Tbl.create 1
  | f :: rest ->
      let combined = List.fold_left (join k) f rest in
      let pos = Schema.positions combined.schema keep in
      let out = Tuple.Tbl.create (max 16 (cardinal combined)) in
      Tuple.Tbl.iter
        (fun tup v -> Tuple.Tbl.replace out (Tuple.project pos tup) v)
        combined.vals;
      out

(* Materialize-the-flat-join reference: no elimination, no reduction —
   join everything (request included), then ⊕-fold the annotations.
   This is both the differential-testing oracle and the
   materialize-then-fold cost baseline. *)
let brute k factors ~q_a =
  match of_request k q_a :: factors with
  | [] -> assert false
  | f :: rest ->
      let flat = List.fold_left (join k) f rest in
      Tuple.Tbl.fold
        (fun _ v acc -> Semiring.add k acc v)
        flat.vals (Semiring.zero k)
