open Stt_hypergraph

(* --- permutations of a small list --- *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* --- tree decomposition from an elimination ordering --- *)
let td_of_ordering hg order =
  let n = List.length order in
  let pos = Hashtbl.create n in
  List.iteri (fun i v -> Hashtbl.add pos v i) order;
  let verts = Array.of_list order in
  (* current adjacency over original vertex ids *)
  let adj = Hashtbl.create n in
  let get_adj v = try Hashtbl.find adj v with Not_found -> Varset.empty in
  let add_edge u v =
    if u <> v then begin
      Hashtbl.replace adj u (Varset.add v (get_adj u));
      Hashtbl.replace adj v (Varset.add u (get_adj v))
    end
  in
  List.iter
    (fun e -> Varset.iter (fun u -> Varset.iter (fun v -> add_edge u v) e) e)
    hg.Hypergraph.edges;
  let eliminated = Hashtbl.create n in
  let bags = Array.make n Varset.empty in
  for i = 0 to n - 1 do
    let v = verts.(i) in
    let neighbors =
      Varset.filter (fun u -> not (Hashtbl.mem eliminated u)) (get_adj v)
    in
    bags.(i) <- Varset.add v neighbors;
    Varset.iter
      (fun u -> Varset.iter (fun w -> add_edge u w) neighbors)
      neighbors;
    Hashtbl.add eliminated v ()
  done;
  (* parent of bag i: the bag of the first-eliminated vertex among
     bags.(i) minus v_i; root if none *)
  let parent = Array.make n (-1) in
  for i = 0 to n - 1 do
    let others = Varset.remove verts.(i) bags.(i) in
    if not (Varset.is_empty others) then
      parent.(i) <-
        Varset.fold (fun u acc -> min acc (Hashtbl.find pos u)) others max_int
  done;
  (* a disconnected hypergraph yields a forest: attach stray roots *)
  let roots = ref [] in
  Array.iteri (fun i p -> if p = -1 then roots := i :: !roots) parent;
  (match !roots with
  | [] | [ _ ] -> ()
  | keep :: rest -> List.iter (fun i -> parent.(i) <- keep) rest);
  let td = Td.create (Rtree.create ~parent) bags in
  (* splice out node [i], re-attaching its children (and, if [i] is the
     root, promoting one child) to its parent *)
  let splice td i =
    let tree = td.Td.tree in
    let keep = List.filter (fun j -> j <> i) (Rtree.nodes tree) in
    let replacement =
      match Rtree.parent tree i with
      | Some p -> p
      | None -> (
          match Rtree.children tree i with
          | c :: _ -> c
          | [] -> invalid_arg "splice: singleton")
    in
    let renumber = Hashtbl.create 16 in
    List.iteri (fun k j -> Hashtbl.add renumber j k) keep;
    let parent' =
      Array.of_list
        (List.map
           (fun j ->
             let pj =
               match Rtree.parent tree j with
               | None -> -1
               | Some pj -> if pj = i then replacement else pj
             in
             let pj = if pj = j then -1 (* promoted child *) else pj in
             if pj = -1 then -1 else Hashtbl.find renumber pj)
           keep)
    in
    let bags' = Array.of_list (List.map (Td.bag td) keep) in
    Td.create (Rtree.create ~parent:parent') bags'
  in
  (* contract any bag contained in a neighbour's bag (either direction
     along an edge) *)
  let rec simplify td =
    if Td.size td = 1 then td
    else
      let tree = td.Td.tree in
      let redundant =
        List.find_opt
          (fun i ->
            let neighbours =
              (match Rtree.parent tree i with Some p -> [ p ] | None -> [])
              @ Rtree.children tree i
            in
            List.exists
              (fun j -> Varset.subset (Td.bag td i) (Td.bag td j))
              neighbours)
          (Rtree.nodes tree)
      in
      match redundant with
      | None -> td
      | Some i -> simplify (splice td i)
  in
  simplify td

let dedup_tds tds =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun td ->
      let key = Td.canonical_key td in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    tds

let rootings td = List.map (Td.reroot td) (List.init (Td.size td) Fun.id)

let merge_closure tds =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let queue = Queue.create () in
  let push td =
    let key = Td.canonical_key td in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := td :: !out;
      Queue.add td queue
    end
  in
  List.iter push tds;
  while not (Queue.is_empty queue) do
    let td = Queue.pop queue in
    List.iter
      (fun i ->
        if Rtree.children td.Td.tree i <> [] then push (Td.merge_subtree td i))
      (Rtree.nodes td.Td.tree)
  done;
  !out

(* all rooted decompositions reachable by the construction above whose
   root bag contains the access pattern and which are free-connex w.r.t.
   their root *)
let tree_decompositions (cqap : Cq.cqap) =
  let hg = Pmtd.access_hypergraph cqap in
  let vars = Varset.to_list (Hypergraph.vertices hg) in
  let base = permutations vars |> List.map (td_of_ordering hg) |> dedup_tds in
  let rooted = List.concat_map rootings base |> dedup_tds in
  let all = merge_closure rooted in
  List.filter
    (fun td ->
      Varset.subset cqap.Cq.access (Td.bag td (Td.root td))
      && Td.is_free_connex td ~head:cqap.Cq.cq.Cq.head
      && Td.is_valid td hg)
    all

(* antichains of tree nodes: no two related by the ancestor order *)
let antichains tree nodes =
  List.fold_left
    (fun acc v ->
      acc
      @ List.filter_map
          (fun chain ->
            if
              List.exists
                (fun u ->
                  u = v
                  || Rtree.is_ancestor tree u v
                  || Rtree.is_ancestor tree v u)
                chain
            then None
            else Some (v :: chain))
          acc)
    [ [] ] nodes

(* descendant-closed materialization sets = unions of complete subtrees *)
let materialization_sets td =
  let tree = td.Td.tree in
  let n = Td.size td in
  List.map
    (fun chain ->
      let m = Array.make n false in
      List.iter
        (fun v -> List.iter (fun u -> m.(u) <- true) (Rtree.subtree tree v))
        chain;
      m)
    (antichains tree (Rtree.nodes tree))

let reduce_pmtds pmtds =
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun p ->
        let key = Pmtd.signature p in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      pmtds
  in
  (* keep minimal elements of the domination order: drop any PMTD that
     strictly dominates another one *)
  List.filter
    (fun p ->
      not
        (List.exists
           (fun q ->
             Pmtd.signature p <> Pmtd.signature q
             && Pmtd.dominates p q
             && not (Pmtd.dominates q p))
           distinct))
    distinct

let pmtds ?(max_pmtds = 64) cqap =
  let tds = tree_decompositions cqap in
  let candidates =
    List.concat_map
      (fun td ->
        List.filter_map
          (fun m ->
            match Pmtd.create cqap td ~materialized:m with
            | Ok p when Pmtd.is_non_redundant p -> Some p
            | Ok _ | Error _ -> None)
          (materialization_sets td))
      tds
  in
  let reduced = reduce_pmtds candidates in
  if List.length reduced > max_pmtds then
    failwith
      (Printf.sprintf "Enum.pmtds: %d PMTDs exceed the limit %d"
         (List.length reduced) max_pmtds);
  reduced

let induced cqap td =
  (* Section 6.3: for each antichain, merge each chosen node's subtree
     into the node and materialize exactly the merged nodes.  Merging
     renumbers nodes, so merged nodes are re-identified by their bag
     (unique in a non-redundant decomposition). *)
  let tree = td.Td.tree in
  List.filter_map
    (fun chain ->
      let td', merged_bags =
        List.fold_left
          (fun (td_acc, bags_acc) t0 ->
            let cur =
              List.find_opt
                (fun i -> Varset.equal (Td.bag td_acc i) (Td.bag td t0))
                (Rtree.nodes td_acc.Td.tree)
            in
            match cur with
            | None -> (td_acc, bags_acc)
            | Some i ->
                let td'' = Td.merge_subtree td_acc i in
                let union =
                  List.fold_left
                    (fun acc j -> Varset.union acc (Td.bag td_acc j))
                    Varset.empty
                    (Rtree.subtree td_acc.Td.tree i)
                in
                (td'', union :: bags_acc))
          (td, []) chain
      in
      let mat =
        Array.init (Td.size td') (fun i ->
            List.exists (Varset.equal (Td.bag td' i)) merged_bags)
      in
      match Pmtd.create cqap td' ~materialized:mat with
      | Ok p when Pmtd.is_non_redundant p -> Some p
      | Ok _ | Error _ -> None)
    (antichains tree (Rtree.nodes tree))
  |> reduce_pmtds
