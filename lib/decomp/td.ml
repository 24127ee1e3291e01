open Stt_hypergraph

type t = { tree : Rtree.t; bags : Varset.t array }

let create tree bags =
  if Rtree.size tree <> Array.length bags then
    invalid_arg "Td.create: size mismatch";
  { tree; bags = Array.copy bags }

let bag t i = t.bags.(i)
let size t = Array.length t.bags
let root t = Rtree.root t.tree

let is_valid t hg =
  let edge_covered e = Array.exists (fun b -> Varset.subset e b) t.bags in
  List.for_all edge_covered hg.Hypergraph.edges
  && Varset.for_all
       (fun x ->
         (* bags containing x form a connected subtree: every non-highest
            node containing x has a parent containing x, for the tree
            rooted anywhere; equivalently the number of nodes containing
            x whose parent does not contain x is exactly one *)
         let holders =
           List.filter (fun i -> Varset.mem x t.bags.(i)) (Rtree.nodes t.tree)
         in
         match holders with
         | [] -> false
         | _ ->
             let tops =
               List.filter
                 (fun i ->
                   match Rtree.parent t.tree i with
                   | None -> true
                   | Some p -> not (Varset.mem x t.bags.(p)))
                 holders
             in
             List.length tops = 1)
       (Hypergraph.vertices hg)

let top t x =
  let holders =
    List.filter (fun i -> Varset.mem x t.bags.(i)) (Rtree.nodes t.tree)
  in
  let tops =
    List.filter
      (fun i ->
        match Rtree.parent t.tree i with
        | None -> true
        | Some p -> not (Varset.mem x t.bags.(p)))
      holders
  in
  match tops with
  | [ i ] -> i
  | [] -> raise Not_found
  | i :: _ -> i (* invalid decomposition; return an arbitrary top *)

let is_free_connex t ~head =
  let all =
    Array.fold_left Varset.union Varset.empty t.bags
  in
  let heads = Varset.inter head all in
  let nonheads = Varset.diff all head in
  Varset.for_all
    (fun x ->
      Varset.for_all
        (fun y -> not (Rtree.is_ancestor t.tree (top t y) (top t x)))
        nonheads)
    heads

let reroot t r = { t with tree = Rtree.reroot t.tree r }

let merge_subtree t i =
  let sub = Rtree.subtree t.tree i in
  let merged = List.fold_left (fun acc j -> Varset.union acc t.bags.(j)) Varset.empty sub in
  let keep =
    List.filter (fun j -> j = i || not (List.mem j sub)) (Rtree.nodes t.tree)
  in
  let renumber = Hashtbl.create 16 in
  List.iteri (fun k j -> Hashtbl.add renumber j k) keep;
  let parent =
    Array.of_list
      (List.map
         (fun j ->
           match Rtree.parent t.tree j with
           | None -> -1
           | Some p -> Hashtbl.find renumber p)
         keep)
  in
  let bags =
    Array.of_list
      (List.map (fun j -> if j = i then merged else t.bags.(j)) keep)
  in
  create (Rtree.create ~parent) bags

let canonical_key t =
  let bag_str b = Varset.to_string b in
  let bags = List.sort compare (Array.to_list t.bags |> List.map bag_str) in
  let edges =
    List.map
      (fun (c, p) ->
        let a = bag_str t.bags.(c) and b = bag_str t.bags.(p) in
        if a < b then a ^ "--" ^ b else b ^ "--" ^ a)
      (Rtree.edges t.tree)
    |> List.sort compare
  in
  String.concat ";" bags ^ "|" ^ String.concat ";" edges
  ^ "|root=" ^ bag_str t.bags.(root t)

let pp names ppf t =
  Format.fprintf ppf "@[<h>TD(root=%a;" (Varset.pp_named names)
    t.bags.(root t);
  List.iter
    (fun (c, p) ->
      Format.fprintf ppf " %a->%a" (Varset.pp_named names) t.bags.(c)
        (Varset.pp_named names) t.bags.(p))
    (Rtree.edges t.tree);
  Format.fprintf ppf ")@]"
