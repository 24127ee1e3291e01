open Stt_relation

type edges = (int * int) list

(* shared adjacency with O(1) probes *)
type adjacency = {
  out_adj : (int, int list) Hashtbl.t;
  in_adj : (int, int list) Hashtbl.t;
  edge : unit Tuple.Tbl.t;
  nedges : int;
}

let adjacency edges =
  let out_adj = Hashtbl.create 1024 and in_adj = Hashtbl.create 1024 in
  let edge = Tuple.Tbl.create (List.length edges) in
  let count = ref 0 in
  List.iter
    (fun (u, v) ->
      let key = [| u; v |] in
      if not (Tuple.Tbl.mem edge key) then begin
        Tuple.Tbl.add edge key ();
        incr count;
        Hashtbl.replace out_adj u
          (v :: (try Hashtbl.find out_adj u with Not_found -> []));
        Hashtbl.replace in_adj v
          (u :: (try Hashtbl.find in_adj v with Not_found -> []))
      end)
    edges;
  { out_adj; in_adj; edge; nedges = !count }

let successors adj u = try Hashtbl.find adj.out_adj u with Not_found -> []
let predecessors adj v = try Hashtbl.find adj.in_adj v with Not_found -> []

let has_edge adj u v =
  Cost.charge_probe ();
  Tuple.Tbl.mem adj.edge [| u; v |]

module Bfs = struct
  type t = adjacency

  let build = adjacency

  (* frontier of vertices reachable in exactly [i] steps (set semantics) *)
  let query t ~k u v =
    let frontier = ref [ u ] in
    (try
       for _ = 1 to k do
         let next = Hashtbl.create 64 in
         List.iter
           (fun w ->
             Cost.charge_scan ();
             List.iter
               (fun x ->
                 Cost.charge_scan ();
                 Hashtbl.replace next x ())
               (successors t w))
           !frontier;
         frontier := Hashtbl.fold (fun x () acc -> x :: acc) next []
       done
     with Exit -> ());
    List.mem v !frontier
end

module Baseline = struct
  type t = {
    k : int;
    adj : adjacency;
    threshold : int;
    stored : unit Tuple.Tbl.t; (* (u, v, j): heavy-out u reaches heavy-in v in exactly j steps *)
    heavy_out : (int, unit) Hashtbl.t;
    heavy_in : (int, unit) Hashtbl.t;
  }

  let space t = Tuple.Tbl.length t.stored
  let threshold t = t.threshold

  (* exact-k reachability by layered BFS, preprocessing only *)
  let reach_exactly adj k u =
    let frontier = ref [ u ] in
    for _ = 1 to k do
      let next = Hashtbl.create 64 in
      List.iter
        (fun w ->
          List.iter (fun x -> Hashtbl.replace next x ()) (successors adj w))
        !frontier;
      frontier := Hashtbl.fold (fun x () acc -> x :: acc) next []
    done;
    !frontier

  let build ~k edges ~budget =
    let adj = adjacency edges in
    let n = adj.nedges in
    (* #heavy_out · #heavy_in <= budget; with threshold t there are at
       most n/t heavy vertices on each side *)
    let threshold =
      let root = int_of_float (Float.sqrt (float_of_int (max 1 budget))) in
      max 1 (n / max 1 root)
    in
    let heavy_out = Hashtbl.create 64 and heavy_in = Hashtbl.create 64 in
    Hashtbl.iter
      (fun u succs ->
        if List.length succs > threshold then Hashtbl.replace heavy_out u ())
      adj.out_adj;
    Hashtbl.iter
      (fun v preds ->
        if List.length preds > threshold then Hashtbl.replace heavy_in v ())
      adj.in_adj;
    let stored = Tuple.Tbl.create 1024 in
    Hashtbl.iter
      (fun u () ->
        for j = 1 to k do
          List.iter
            (fun v ->
              if Hashtbl.mem heavy_in v then
                Tuple.Tbl.add stored [| u; v; j |] ())
            (reach_exactly adj j u)
        done)
      heavy_out;
    { k; adj; threshold; stored; heavy_out; heavy_in }

  (* recurse from whichever endpoint is light; heavy-heavy pairs are
     table lookups *)
  let query t u v =
    let rec go k u v =
      if k = 1 then has_edge t.adj u v
      else if not (Hashtbl.mem t.heavy_out u) then
        List.exists
          (fun w ->
            Cost.charge_scan ();
            go (k - 1) w v)
          (successors t.adj u)
      else if not (Hashtbl.mem t.heavy_in v) then
        List.exists
          (fun w ->
            Cost.charge_scan ();
            go (k - 1) u w)
          (predecessors t.adj v)
      else begin
        Cost.charge_probe ();
        Tuple.Tbl.mem t.stored [| u; v; k |]
      end
    in
    if t.k = 0 then u = v else go t.k u v
end

module Framework = struct
  type t = { engine : Stt_core.Engine.t }

  let build ~k edges ~budget =
    let q = Stt_hypergraph.Cq.Library.k_path k in
    let db = Stt_core.Db.create () in
    Stt_core.Db.add_pairs db "R" edges;
    { engine = Stt_core.Engine.build_auto q ~db ~budget }

  let space t = Stt_core.Engine.space t.engine
  let query t u v = Stt_core.Engine.answer_tuple t.engine [| u; v |]
  let engine t = t.engine
end

module AtMost = struct
  type t = { oracles : Framework.t list }

  let build ~k edges ~budget =
    if k < 1 then invalid_arg "Reach.AtMost.build";
    let each = max 1 (budget / k) in
    {
      oracles =
        List.init k (fun i -> Framework.build ~k:(i + 1) edges ~budget:each);
    }

  let space t =
    List.fold_left (fun acc o -> acc + Framework.space o) 0 t.oracles

  let query t u v =
    u = v || List.exists (fun o -> Framework.query o u v) t.oracles
end

module Counting = struct
  type t = { engine : Stt_core.Engine.t }

  let build ~k edges ~budget ~agg_budget =
    let q = Stt_hypergraph.Cq.Library.k_path k in
    let db = Stt_core.Db.create () in
    Stt_core.Db.add_pairs db "R" edges;
    let engine = Stt_core.Engine.build_auto q ~db ~budget in
    Stt_core.Engine.enable_agg ~kinds:[ Stt_semiring.Semiring.Count ] engine
      ~db ~budget:agg_budget;
    { engine }

  let engine t = t.engine

  let count t u v =
    let q_a =
      Relation.of_list (Stt_core.Engine.access_schema t.engine) [ [| u; v |] ]
    in
    fst (Stt_core.Engine.answer_agg t.engine Stt_semiring.Semiring.Count ~q_a)
end

(* layered DP: [counts.(i)] maps w to the number of distinct i-edge walks
   u -> ... -> w (edge multiset deduped, matching set semantics of the
   stored relation) *)
let naive_count edges ~k u v =
  let adj = adjacency edges in
  let counts = ref (Hashtbl.create 64) in
  Hashtbl.replace !counts u 1;
  for _ = 1 to k do
    let next = Hashtbl.create 64 in
    Hashtbl.iter
      (fun w c ->
        List.iter
          (fun x ->
            let prev = try Hashtbl.find next x with Not_found -> 0 in
            Hashtbl.replace next x (prev + c))
          (successors adj w))
      !counts;
    counts := next
  done;
  try Hashtbl.find !counts v with Not_found -> 0

let naive edges ~k u v =
  let rec go k u =
    if k = 0 then u = v
    else
      List.exists (fun (a, b) -> a = u && go (k - 1) b) edges
  in
  go k u
