(* Semiring aggregates: algebraic laws, the engine's table/online/cache
   paths, snapshot round trips, and the three aggregate apps against
   naive references.  The online path against the flat-join oracle on
   random instances is test_differential's aggregate arm. *)

open Stt_relation
open Stt_core
open Stt_apps
open Stt_workload
module Semiring = Stt_semiring.Semiring

(* --- semiring laws --- *)

(* representative samples per kind: identities plus ordinary values
   (the tropical kinds saturate at their absorbing element, so laws are
   checked on the range arising from nonnegative annotations) *)
let samples k =
  let open Semiring in
  [ zero k; one k; 0; 1; 2; 7; 100 ]

let test_laws () =
  List.iter
    (fun k ->
      let open Semiring in
      let vals = samples k in
      List.iter
        (fun a ->
          Alcotest.(check int) "add zero" a (add k a (zero k));
          Alcotest.(check int) "mul one" a (mul k a (one k));
          Alcotest.(check int) "mul zero absorbs" (zero k) (mul k a (zero k));
          List.iter
            (fun b ->
              Alcotest.(check int) "add comm" (add k a b) (add k b a);
              Alcotest.(check int) "mul comm" (mul k a b) (mul k b a);
              List.iter
                (fun c ->
                  Alcotest.(check int) "add assoc"
                    (add k (add k a b) c)
                    (add k a (add k b c));
                  Alcotest.(check int) "mul assoc"
                    (mul k (mul k a b) c)
                    (mul k a (mul k b c));
                  Alcotest.(check int) "distributivity"
                    (mul k a (add k b c))
                    (add k (mul k a b) (mul k a c)))
                vals)
            vals)
        vals)
    Semiring.all

let test_tags () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "tag round trip" true
        (Semiring.of_tag (Semiring.to_tag k) = Some k);
      Alcotest.(check bool) "name round trip" true
        (Semiring.of_name (Semiring.name k) = Some k))
    Semiring.all;
  Alcotest.(check bool) "tag 0 reserved for tuples" true
    (Semiring.of_tag 0 = None);
  Alcotest.(check bool) "tag 5 unknown" true (Semiring.of_tag 5 = None)

(* --- engine: table path, online fallback, budget equivalence --- *)

let graph = Graphs.zipf_both ~seed:31 ~vertices:80 ~edges:700 ~s:1.1

let test_engine_budget_equivalence () =
  (* a complete table, a partial table and no table must agree *)
  let full = Reach.Counting.build ~k:2 graph ~budget:4000 ~agg_budget:100_000 in
  let tight = Reach.Counting.build ~k:2 graph ~budget:4000 ~agg_budget:3 in
  let none = Reach.Counting.build ~k:2 graph ~budget:4000 ~agg_budget:0 in
  Alcotest.(check bool) "full table complete" true
    (Engine.agg_complete (Reach.Counting.engine full) Semiring.Count);
  let rng = Rng.create 17 in
  for _ = 1 to 80 do
    let u = Rng.int rng 80 and v = Rng.int rng 80 in
    let expect = Reach.naive_count graph ~k:2 u v in
    Alcotest.(check int) "complete table" expect (Reach.Counting.count full u v);
    Alcotest.(check int) "partial table" expect (Reach.Counting.count tight u v);
    Alcotest.(check int) "no table" expect (Reach.Counting.count none u v)
  done

let test_engine_vs_baseline_ops () =
  (* value equality against materialize-then-fold, and op sanity: the
     aggregate path never pays more than the baseline beyond the fixed
     2-op-per-request-row table overhead *)
  let t = Reach.Counting.build ~k:3 graph ~budget:4000 ~agg_budget:100_000 in
  let e = Reach.Counting.engine t in
  let schema = Engine.access_schema e in
  let rng = Rng.create 23 in
  for _ = 1 to 20 do
    let rows =
      List.init
        (1 + Rng.int rng 6)
        (fun _ -> [| Rng.int rng 80; Rng.int rng 80 |])
    in
    let q_a = Relation.of_list schema rows in
    let fast, fast_c = Engine.answer_agg e Semiring.Count ~q_a in
    let slow, slow_c = Engine.agg_baseline e Semiring.Count ~q_a in
    Alcotest.(check int) "agg = baseline" slow fast;
    let budget = Cost.total slow_c + (2 * Relation.cardinal q_a) in
    Alcotest.(check bool)
      (Printf.sprintf "ops %d <= %d" (Cost.total fast_c) budget)
      true
      (Cost.total fast_c <= budget)
  done

(* --- kind-tagged cache entries --- *)

let test_cache_kind_distinct () =
  let t = Reach.Counting.build ~k:2 graph ~budget:4000 ~agg_budget:0 in
  let e = Reach.Counting.engine t in
  Engine.attach_cache e ~budget:10_000;
  let q_a = Relation.of_list (Engine.access_schema e) [ [| 3; 7 |]; [| 1; 2 |] ] in
  let tuples = List.sort compare (Relation.to_list (Engine.answer e ~q_a)) in
  let count, _ = Engine.answer_agg e Semiring.Count ~q_a in
  let stats () = Option.get (Engine.cache_stats e) in
  Alcotest.(check int) "two distinct entries for one request" 2
    (stats ()).Stt_cache.Cache.entries;
  (* replay both: hits, and neither entry was clobbered by the other *)
  let tuples' = List.sort compare (Relation.to_list (Engine.answer e ~q_a)) in
  let count', _ = Engine.answer_agg e Semiring.Count ~q_a in
  Alcotest.(check bool) "tuple answer stable" true (tuples = tuples');
  Alcotest.(check int) "aggregate answer stable" count count';
  Alcotest.(check int) "both replays hit" 2 (stats ()).Stt_cache.Cache.hits

(* --- snapshot round trip with agg section --- *)

let test_snapshot_roundtrip () =
  let weighted =
    List.map (fun (u, v) -> (u, v, 1 + ((u + v) mod 9))) graph
  in
  let t = Minreach.build ~k:2 weighted ~budget:4000 ~agg_budget:50 in
  let e = Minreach.engine t in
  Engine.attach_cache e ~budget:1000;
  (* populate the cache with both a tuple and an aggregate entry so the
     snapshot's kind-tagged cache section is exercised *)
  let q_a = Relation.of_list (Engine.access_schema e) [ [| 2; 5 |] ] in
  ignore (Engine.answer e ~q_a);
  ignore (Engine.answer_agg e Semiring.Min ~q_a);
  let path = Filename.temp_file "stt_semiring" ".idx" in
  (match Engine.save e path with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "save: %s" (Stt_store.Store.error_to_string err));
  let e' =
    match Engine.load path with
    | Ok e' -> e'
    | Error err ->
        Alcotest.failf "load: %s" (Stt_store.Store.error_to_string err)
  in
  Sys.remove path;
  Alcotest.(check bool) "agg enabled after load" true (Engine.agg_enabled e');
  Alcotest.(check bool) "kinds preserved" true
    (Engine.agg_kinds e' = [ Semiring.Min ]);
  Alcotest.(check int) "agg budget preserved" 50 (Engine.agg_budget e');
  Alcotest.(check bool) "completeness preserved" true
    (Engine.agg_complete e Semiring.Min = Engine.agg_complete e' Semiring.Min);
  Alcotest.(check int) "table size preserved" (Engine.agg_table_size e)
    (Engine.agg_table_size e');
  let rng = Rng.create 29 in
  for _ = 1 to 60 do
    let u = Rng.int rng 80 and v = Rng.int rng 80 in
    let q_a = Relation.of_list (Engine.access_schema e) [ [| u; v |] ] in
    Alcotest.(check int) "answers preserved"
      (fst (Engine.answer_agg e Semiring.Min ~q_a))
      (fst (Engine.answer_agg e' Semiring.Min ~q_a))
  done

(* --- deltas drop tables but stay correct --- *)

let test_deltas_invalidate_tables () =
  let t = Reach.Counting.build ~k:2 graph ~budget:4000 ~agg_budget:100_000 in
  let e = Reach.Counting.engine t in
  if Engine.supports_maintenance e then begin
    Alcotest.(check bool) "table built" true
      (Engine.agg_table_size e > 0);
    let fresh = [| 81; 82 |] in
    ignore (Engine.insert e "R" fresh);
    Alcotest.(check int) "tables dropped on delta" 0 (Engine.agg_table_size e);
    let graph' = graph @ [ (81, 82) ] in
    let rng = Rng.create 37 in
    for _ = 1 to 40 do
      let u = Rng.int rng 83 and v = Rng.int rng 83 in
      Alcotest.(check int) "post-delta counts"
        (Reach.naive_count graph' ~k:2 u v)
        (Reach.Counting.count t u v)
    done
  end

(* --- tables built after deltas read the live base --- *)

let test_tables_after_deltas () =
  let edges = ref [ (1, 2); (2, 3) ] in
  let db = Db.create () in
  Db.add_pairs db "R" !edges;
  let e =
    Engine.build_auto (Stt_hypergraph.Cq.Library.k_path 2) ~db ~budget:100
  in
  let q_a = Relation.of_list (Engine.access_schema e) [ [| 1; 3 |] ] in
  let delta add (u, v) =
    if add then begin
      ignore (Engine.insert e "R" [| u; v |]);
      edges := !edges @ [ (u, v) ]
    end
    else begin
      ignore (Engine.delete e "R" [| u; v |]);
      edges := List.filter (( <> ) (u, v)) !edges
    end
  in
  let check what expect =
    Alcotest.(check int) (what ^ ": walks over the edge list") expect
      (Reach.naive_count !edges ~k:2 1 3);
    Alcotest.(check int) what expect
      (fst (Engine.answer_agg e Semiring.Count ~q_a))
  in
  delta true (1, 4);
  delta true (4, 3);
  Engine.enable_agg ~kinds:[ Semiring.Count ] e ~db ~budget:100;
  check "COUNT(1,3) from tables built after two inserts" 2;
  delta false (1, 2);
  check "COUNT(1,3) after a delete" 1;
  Engine.enable_agg ~kinds:[ Semiring.Count ] e ~db ~budget:100;
  Alcotest.(check bool) "tables rebuilt" true
    (Engine.agg_kinds e = [ Semiring.Count ]);
  check "COUNT(1,3) from tables rebuilt after the delete" 1

(* --- apps against naive references --- *)

let test_reach_counting () =
  let rng = Rng.create 41 in
  List.iter
    (fun k ->
      let t = Reach.Counting.build ~k graph ~budget:4000 ~agg_budget:2000 in
      for _ = 1 to 60 do
        let u = Rng.int rng 80 and v = Rng.int rng 80 in
        Alcotest.(check int)
          (Printf.sprintf "k=%d walk count" k)
          (Reach.naive_count graph ~k u v)
          (Reach.Counting.count t u v)
      done)
    [ 1; 2; 3 ]

let test_minreach () =
  let rng = Rng.create 43 in
  let weighted =
    List.map (fun (u, v) -> (u, v, 1 + Rng.int rng 20)) graph
  in
  List.iter
    (fun agg_budget ->
      let t = Minreach.build ~k:3 weighted ~budget:4000 ~agg_budget in
      for _ = 1 to 60 do
        let u = Rng.int rng 80 and v = Rng.int rng 80 in
        let expect = Minreach.naive weighted ~k:3 u v in
        Alcotest.(check bool)
          (Printf.sprintf "min weight %d->%d" u v)
          true
          (Minreach.min_weight t u v = expect)
      done)
    [ 0; 2000 ]

let test_minreach_rejects_negative () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Minreach.build: negative weight") (fun () ->
      ignore (Minreach.build ~k:2 [ (0, 1, -3) ] ~budget:10 ~agg_budget:10))

let members =
  Sets.zipf_sizes ~seed:21 ~universe:150 ~sets:60 ~memberships:1200 ~s:1.2

let test_setdisj_counting () =
  let rng = Rng.create 47 in
  List.iter
    (fun k ->
      let t =
        Setdisj.Counting.build ~k ~memberships:members ~budget:4000
          ~agg_budget:1000
      in
      for _ = 1 to 60 do
        let q = Array.init k (fun _ -> Rng.int rng 60) in
        Alcotest.(check int) "intersection cardinality"
          (Setdisj.naive_cardinality ~memberships:members q)
          (Setdisj.Counting.cardinality t q)
      done)
    [ 2; 3 ]

let () =
  Alcotest.run "semiring"
    [
      ( "laws",
        [
          Alcotest.test_case "identities, comm, assoc, distrib" `Quick
            test_laws;
          Alcotest.test_case "tag/name round trips" `Quick test_tags;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget-independent answers" `Quick
            test_engine_budget_equivalence;
          Alcotest.test_case "value and op sanity vs baseline" `Quick
            test_engine_vs_baseline_ops;
          Alcotest.test_case "kind-tagged cache entries" `Quick
            test_cache_kind_distinct;
          Alcotest.test_case "snapshot round trip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "deltas drop tables, answers stay right" `Quick
            test_deltas_invalidate_tables;
          Alcotest.test_case "tables built after deltas are exact" `Quick
            test_tables_after_deltas;
        ] );
      ( "apps",
        [
          Alcotest.test_case "path counting" `Quick test_reach_counting;
          Alcotest.test_case "min-weight reachability" `Quick test_minreach;
          Alcotest.test_case "negative weights rejected" `Quick
            test_minreach_rejects_negative;
          Alcotest.test_case "intersection cardinality" `Quick
            test_setdisj_counting;
        ] );
    ]
