open Stt_relation
open Stt_hypergraph

type t = {
  rels : (string, int array list) Hashtbl.t;
  (* semiring weights, when a relation was registered with them; tuples
     without an entry fall back to the kind's default annotation *)
  weights : (string, int Tuple.Tbl.t) Hashtbl.t;
}

let create () : t = { rels = Hashtbl.create 8; weights = Hashtbl.create 4 }

let add t name tuples =
  (match tuples with
  | [] -> ()
  | first :: rest ->
      let arity = Array.length first in
      List.iter
        (fun tup ->
          if Array.length tup <> arity then
            invalid_arg "Db.add: mixed arities")
        rest);
  Hashtbl.remove t.weights name;
  Hashtbl.replace t.rels name tuples

let add_pairs t name pairs =
  add t name (List.map (fun (a, b) -> [| a; b |]) pairs)

let add_weighted t name rows =
  add t name (List.map fst rows);
  let w = Tuple.Tbl.create (max 16 (List.length rows)) in
  List.iter (fun (tup, weight) -> Tuple.Tbl.replace w tup weight) rows;
  Hashtbl.replace t.weights name w

let weight t name tup =
  match Hashtbl.find_opt t.weights name with
  | None -> None
  | Some w -> Tuple.Tbl.find_opt w tup

let mem t name = Hashtbl.mem t.rels name
let cardinal t name =
  match Hashtbl.find_opt t.rels name with None -> 0 | Some l -> List.length l

let size t = Hashtbl.fold (fun _ l acc -> max acc (List.length l)) t.rels 0

let relation t (atom : Cq.atom) =
  let tuples =
    match Hashtbl.find_opt t.rels atom.Cq.rel with
    | Some l -> l
    | None -> invalid_arg ("Db.relation: unknown relation " ^ atom.Cq.rel)
  in
  let schema = Schema.of_list atom.Cq.vars in
  let rel = Relation.create schema in
  Cost.with_counting false (fun () ->
      List.iter
        (fun tup ->
          Relation.add rel tup;
          match weight t atom.Cq.rel tup with
          | Some w -> Relation.annotate rel tup w
          | None -> ())
        tuples);
  rel

(* Greedy connected left-deep join with early projection.  When [limit]
   is set, raises [Relation.Too_big] as soon as an intermediate result
   exceeds it, before the intermediate is fully materialized. *)
let join_greedy_internal ?limit relations ~keep =
  match relations with
  | [] -> invalid_arg "Db.join_greedy: no relations"
  | first :: _ ->
      (* start from the smallest relation *)
      let start =
        List.fold_left
          (fun best r ->
            if Relation.cardinal r < Relation.cardinal best then r else best)
          first relations
      in
      let remaining = ref (List.filter (fun r -> r != start) relations) in
      let acc = ref start in
      let needed_later () =
        List.fold_left
          (fun vs r ->
            List.fold_left (fun vs v -> v :: vs) vs (Schema.vars (Relation.schema r)))
          keep !remaining
      in
      while !remaining <> [] do
        let connected r =
          Schema.inter (Relation.schema !acc) (Relation.schema r) <> []
        in
        let pick =
          let candidates = List.filter connected !remaining in
          let pool = if candidates = [] then !remaining else candidates in
          List.fold_left
            (fun best r ->
              if Relation.cardinal r < Relation.cardinal best then r else best)
            (List.hd pool) pool
        in
        remaining := List.filter (fun r -> r != pick) !remaining;
        acc := Relation.natural_join ?limit !acc pick;
        (* early projection *)
        let needed = needed_later () in
        let schema_vars = Schema.vars (Relation.schema !acc) in
        let kept = List.filter (fun v -> List.mem v needed) schema_vars in
        if List.length kept < List.length schema_vars then
          acc := Relation.project !acc kept
      done;
      let result =
        Relation.project !acc
          (List.filter (fun v -> Schema.mem v (Relation.schema !acc)) keep)
      in
      (* The joins above bound every *joined* intermediate, but with a
         single input relation (or when the last projection is the
         identity on an unchecked accumulator) the final result was
         never compared against the limit — check it explicitly so the
         [.mli] contract ("any intermediate or final relation") holds. *)
      (match limit with
      | Some l when Relation.cardinal result > l -> raise Relation.Too_big
      | _ -> ());
      result

let join_greedy relations ~keep = join_greedy_internal relations ~keep

let join_greedy_bounded relations ~keep ~limit =
  try Some (join_greedy_internal ~limit relations ~keep)
  with Relation.Too_big -> None

let eval t (cq : Cq.t) =
  Cost.with_counting false (fun () ->
      let rels = List.map (relation t) cq.Cq.atoms in
      join_greedy rels ~keep:(Varset.to_list cq.Cq.head))

let eval_access t (cqap : Cq.cqap) ~q_a =
  Cost.with_counting false (fun () ->
      let cq = cqap.Cq.cq in
      let rels = q_a :: List.map (relation t) cq.Cq.atoms in
      join_greedy rels ~keep:(Varset.to_list cq.Cq.head))
