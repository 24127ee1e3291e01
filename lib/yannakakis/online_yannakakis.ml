open Stt_relation
open Stt_hypergraph
open Stt_decomp
module Fconfig = Stt_factorized.Config
module Frep = Stt_factorized.Frep

(* How a materialized S-view is held: a live relation probed through
   its index on the link variables, or a d-representation whose probe
   prefix is those same link variables.  Both sides answer the same
   probes at the same op charges; they differ only in stored-singleton
   footprint, and only a live view takes deltas. *)
type storage =
  | Flat of { view : Live.t; key : Schema.var list }
  | Fact of Frep.t

type preprocessed = {
  pmtd : Pmtd.t;
  s_store : (int, storage) Hashtbl.t; (* materialized node -> its view *)
}

let view_vars p node = (Pmtd.view p node).Pmtd.vars

(* key variables used to link a child view to its parent: for the root,
   the access pattern; otherwise the intersection with the parent view *)
let link_vars (p : Pmtd.t) node =
  let tree = p.Pmtd.td.Td.tree in
  match Rtree.parent tree node with
  | None -> Varset.inter (view_vars p node) p.Pmtd.cqap.Cq.access
  | Some par -> Varset.inter (view_vars p node) (view_vars p par)

let semijoin_via_storage rel = function
  | Flat { view; key } -> Index.semijoin rel (Live.index view key)
  | Fact f -> Frep.semijoin rel f

let join_via_storage rel = function
  | Flat { view; key } -> Index.join rel (Live.index view key)
  | Fact f -> Frep.join rel f

(* a live view with its link index built now, not on the first request *)
let flat rel key =
  let view = Live.of_relation rel in
  ignore (Live.index view key);
  Flat { view; key }

(* Hold [rel] keyed on [key]: factorized when allowed and the mode and
   measured ratio agree, flat otherwise.  Under [Auto] the d-rep is
   built, measured, and thrown away if the compression does not clear
   the gate. *)
let store_of_rel ~factorize rel key =
  if factorize && Fconfig.mode () <> Fconfig.Off then begin
    let f = Frep.of_relation ~prefix:key rel in
    if Fconfig.eligible ~rows:(Relation.cardinal rel) ~size:(Frep.size f) then
      Fact f
    else flat rel key
  end
  else flat rel key

(* per S-view: a probe structure on its link variables *)
let assemble pmtd s_rels holder =
  let s_store = Hashtbl.create 8 in
  Hashtbl.iter
    (fun node rel ->
      Hashtbl.replace s_store node
        (holder node rel (Varset.to_list (link_vars pmtd node))))
    s_rels;
  { pmtd; s_store }

let preprocess ?(thawed = false) pmtd ~s_views =
  Cost.with_counting false (fun () ->
      let tree = pmtd.Pmtd.td.Td.tree in
      let s_rels = Hashtbl.create 8 in
      let materialized = pmtd.Pmtd.materialized in
      List.iter
        (fun node -> if materialized.(node) then
            Hashtbl.replace s_rels node (s_views node))
        (Rtree.nodes tree);
      (* bottom-up semijoin pass over SS-edges.  A pure space
         optimization (the top-down answer pass joins every S node
         anyway), skipped for thawed views: reduced views cannot absorb
         single-tuple deltas additively. *)
      if not thawed then
        List.iter
          (fun node ->
            if materialized.(node) then
              match Rtree.parent tree node with
              | Some par when materialized.(par) ->
                  let reduced =
                    Relation.semijoin (Hashtbl.find s_rels par)
                      (Hashtbl.find s_rels node)
                  in
                  Hashtbl.replace s_rels par reduced
              | Some _ | None -> ())
          (Rtree.bottom_up tree);
      assemble pmtd s_rels (fun _ -> store_of_rel ~factorize:(not thawed)))

let sum_views f t = Hashtbl.fold (fun _ st acc -> acc + f st) t.s_store 0
let flat_rows view = Relation.cardinal (Live.relation view)

let space =
  sum_views (function Flat { view; _ } -> flat_rows view | Fact f -> Frep.size f)

let logical_rows =
  sum_views (function Flat { view; _ } -> flat_rows view | Fact f -> Frep.rows f)

let has_empty_view t =
  Hashtbl.fold
    (fun _ st empty ->
      empty
      ||
      match st with
      | Flat { view; _ } -> Relation.is_empty (Live.relation view)
      | Fact f -> Frep.rows f = 0)
    t.s_store false

let factorized_views t =
  Hashtbl.fold
    (fun node st acc ->
      match st with Fact f -> (node, f) :: acc | Flat _ -> acc)
    t.s_store []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let live_views t =
  List.filter_map
    (fun node ->
      match Hashtbl.find_opt t.s_store node with
      | Some (Flat { view; _ }) -> Some (node, view)
      | Some (Fact _) | None -> None)
    (Rtree.nodes t.pmtd.Pmtd.td.Td.tree)

(* Snapshot layout: each materialized node's stored S-view, by node id,
   then the increasing list of nodes held as d-representations.  The
   holders are a pure function of their views, so [read] rebuilds them
   with the constructors [preprocess] uses. *)
module C = Stt_store.Codec

(* the rows of a view over its variables in ascending order, the schema
   [read] expects; a d-rep lists its variables in level order *)
let view_relation t node =
  match Hashtbl.find t.s_store node with
  | Flat { view; _ } -> Live.relation view
  | Fact f ->
      Relation.project (Frep.to_relation f)
        (Varset.to_list (view_vars t.pmtd node))

let write e t =
  C.write_list e
    (fun node ->
      C.write_uint e node;
      Relation.write e (view_relation t node))
    (List.sort compare
       (Hashtbl.fold (fun node _ acc -> node :: acc) t.s_store []));
  C.write_list e (fun (node, _) -> C.write_uint e node) (factorized_views t)

let read pmtd d =
  let size = Td.size pmtd.Pmtd.td in
  let materialized = pmtd.Pmtd.materialized in
  let s_rels = Hashtbl.create 8 in
  let read_view () =
    let node = C.read_uint d in
    if node >= size then C.corrupt "s-view node %d out of range" node;
    if not materialized.(node) then
      C.corrupt "s-view at non-materialized node %d" node;
    if Hashtbl.mem s_rels node then
      C.corrupt "duplicate s-view for node %d" node;
    let rel = Relation.read d in
    if
      not
        (Schema.equal (Relation.schema rel)
           (Schema.of_list (Varset.to_list (view_vars pmtd node))))
    then C.corrupt "s-view %d: relation schema differs from the view" node;
    Hashtbl.replace s_rels node rel
  in
  ignore (C.read_list d read_view);
  Array.iteri
    (fun i m ->
      if m && not (Hashtbl.mem s_rels i) then
        C.corrupt "missing s-view for node %d" i)
    materialized;
  let fact = C.read_list d (fun () -> C.read_uint d) in
  ignore
    (List.fold_left
       (fun prev node ->
         if node <= prev || not (Hashtbl.mem s_rels node) then
           C.corrupt "d-rep at node %d: not an increasing stored view" node;
         node)
       (-1) fact);
  Cost.with_counting false (fun () ->
      assemble pmtd s_rels (fun node rel key ->
          if List.mem node fact then Fact (Frep.of_relation ~prefix:key rel)
          else flat rel key))

(* Per-call node state lives in flat arrays indexed by node id (tree
   nodes are [0 .. size-1]): the only per-answer setup allocation is the
   three arrays themselves, no hash table and no per-node records. *)
let answer ?into t ~t_views ~q_a =
  let pmtd = t.pmtd in
  let tree = pmtd.Pmtd.td.Td.tree in
  let head = pmtd.Pmtd.cqap.Cq.cq.Cq.head in
  let into =
    match into with
    | Some rel -> rel
    | None -> Relation.create (Schema.of_list (Varset.to_list head))
  in
  let materialized = pmtd.Pmtd.materialized in
  let n = Rtree.size tree in
  let rels = Array.make n (Relation.create (Schema.of_list [])) in
  let removed = Array.make n false in
  (* a stored view is only probed through its holder, so only the
     T-views are read whole *)
  List.iter
    (fun node -> if not materialized.(node) then rels.(node) <- t_views node)
    (Rtree.nodes tree);
  let head_covered ~child ~parent =
    Varset.subset
      (Varset.inter (view_vars pmtd child) head)
      (view_vars pmtd parent)
  in
  (* bottom-up semijoin-reduce pass *)
  List.iter
    (fun node ->
      match Rtree.parent tree node with
      | None -> ()
      | Some par ->
          if materialized.(node) && materialized.(par) then
            () (* SS: done at preprocess *)
          else if materialized.(node) then begin
            (* ST edge: parent T-view semijoined via the child's storage *)
            rels.(par) <-
              semijoin_via_storage rels.(par) (Hashtbl.find t.s_store node);
            if head_covered ~child:node ~parent:par then
              removed.(node) <- true
          end
          else begin
            (* TT edge *)
            rels.(par) <- Relation.semijoin rels.(par) rels.(node);
            if head_covered ~child:node ~parent:par then
              removed.(node) <- true
            else
              rels.(node) <-
                Relation.project rels.(node)
                  (Varset.to_list
                     (Varset.inter (view_vars pmtd node) head))
          end)
    (Rtree.bottom_up tree);
  (* root *)
  let root = Rtree.root tree in
  let q_a =
    if materialized.(root) then
      semijoin_via_storage q_a (Hashtbl.find t.s_store root)
    else begin
      rels.(root) <-
        Relation.project rels.(root)
          (Varset.to_list (Varset.inter (view_vars pmtd root) head));
      Relation.semijoin q_a rels.(root)
    end
  in
  (* top-down join pass *)
  let result = ref q_a in
  List.iter
    (fun node ->
      if not removed.(node) then
        if materialized.(node) then
          result := join_via_storage !result (Hashtbl.find t.s_store node)
        else result := Relation.natural_join !result rels.(node))
    (Rtree.nodes tree);
  Relation.project_into !result ~into;
  into
