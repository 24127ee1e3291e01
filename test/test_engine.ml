(* End-to-end engine: exactness against brute force for every query
   family, across budgets, on random databases — the main integration
   test of the repository. *)

open Stt_relation
open Stt_hypergraph
open Stt_decomp
open Stt_core
open Stt_workload

let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

let check_equal_answers q db budget requests =
  let idx = Engine.build_auto q ~db ~budget in
  let q_a =
    Relation.of_list (Engine.access_schema idx) (List.map Array.of_list requests)
  in
  let got = sorted (Engine.answer idx ~q_a) in
  let expected = sorted (Db.eval_access db q ~q_a) in
  Alcotest.check Alcotest.(list (list int)) "answers" expected got

let graph_db edges =
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  db

let small_graph = Graphs.zipf_both ~seed:3 ~vertices:60 ~edges:500 ~s:1.1

let requests_2 n seed =
  let rng = Rng.create seed in
  List.init n (fun _ -> [ Rng.int rng 60; Rng.int rng 60 ])

let test_2reach_budgets () =
  List.iter
    (fun budget ->
      check_equal_answers (Cq.Library.k_path 2) (graph_db small_graph) budget
        (requests_2 40 7))
    [ 1; 30; 300; 100000 ]

let test_3reach_budgets () =
  List.iter
    (fun budget ->
      check_equal_answers (Cq.Library.k_path 3) (graph_db small_graph) budget
        (requests_2 25 8))
    [ 1; 300; 100000 ]

let test_square () =
  let edges = Graphs.cycle_rich ~seed:5 ~vertices:40 ~edges:300 in
  List.iter
    (fun budget ->
      check_equal_answers Cq.Library.square (graph_db edges) budget
        (requests_2 30 9))
    [ 1; 200; 50000 ]

let test_set_disjointness () =
  let members = Sets.zipf_sizes ~seed:6 ~universe:80 ~sets:30 ~memberships:400 ~s:1.2 in
  let db = Db.create () in
  Db.add_pairs db "R" members;
  let rng = Rng.create 10 in
  let requests = List.init 30 (fun _ -> [ Rng.int rng 30; Rng.int rng 30 ]) in
  List.iter
    (fun budget ->
      check_equal_answers (Cq.Library.k_set_disjointness 2) db budget requests)
    [ 1; 100; 50000 ]

let test_hierarchical () =
  let q = Cq.Library.hierarchical_binary in
  let inst = Stt_apps.Hierarchical.generate ~seed:4 ~posts:20 ~size:150 in
  let db = Db.create () in
  let add name triples =
    Db.add db name (List.map (fun (x, y, z) -> [| x; y; z |]) triples)
  in
  add "R" inst.Stt_apps.Hierarchical.r;
  add "S" inst.Stt_apps.Hierarchical.s;
  add "T" inst.Stt_apps.Hierarchical.t;
  add "U" inst.Stt_apps.Hierarchical.u;
  let rng = Rng.create 11 in
  let zdom = 20 in
  let requests =
    List.init 25 (fun _ ->
        [ Rng.int rng zdom; Rng.int rng zdom; Rng.int rng zdom; Rng.int rng zdom ])
  in
  List.iter
    (fun budget -> check_equal_answers q db budget requests)
    [ 1; 500; 200000 ]

let test_triangle_empty_access () =
  let edges = Graphs.uniform ~seed:12 ~vertices:25 ~edges:120 in
  let db = graph_db edges in
  let idx = Engine.build_auto Cq.Library.triangle_detect ~db ~budget:100000 in
  let q_a = Relation.create (Schema.of_list []) in
  Relation.add q_a [||];
  let got = sorted (Engine.answer idx ~q_a) in
  let expected =
    Stt_apps.Patterns.Triangle.naive edges |> List.map (fun (a, b) -> [ a; b ])
  in
  Alcotest.check Alcotest.(list (list int)) "triangle pairs" expected got

let test_batched_requests () =
  (* batching many requests at once must equal per-request answers *)
  let db = graph_db small_graph in
  let q = Cq.Library.k_path 2 in
  let idx = Engine.build_auto q ~db ~budget:300 in
  let requests = requests_2 30 13 in
  let batched =
    sorted
      (Engine.answer idx
         ~q_a:
           (Relation.of_list (Engine.access_schema idx)
              (List.map Array.of_list requests)))
  in
  let singly =
    List.filter (fun req -> Engine.answer_tuple idx (Array.of_list req)) requests
    |> List.sort_uniq compare
  in
  Alcotest.check Alcotest.(list (list int)) "batched = singly" singly batched

let test_space_reported () =
  let db = graph_db small_graph in
  let idx0 = Engine.build_auto (Cq.Library.k_path 2) ~db ~budget:1 in
  let idx_big = Engine.build_auto (Cq.Library.k_path 2) ~db ~budget:1_000_000 in
  Alcotest.check Alcotest.bool "more budget, more space" true
    (Engine.space idx_big >= Engine.space idx0);
  Alcotest.check Alcotest.bool "tiny budget, no space" true
    (Engine.space idx0 <= 4)

(* total_space must stay the sum of every store the engine holds —
   intrinsic views, answer cache, aggregate tables — in one unit, at
   every stage of attach/serve/enable *)
let test_total_space () =
  let db = graph_db small_graph in
  let q = Cq.Library.k_path 2 in
  let idx = Engine.build_auto q ~db ~budget:300 in
  let parts () =
    Engine.space idx + Engine.cache_space idx + Engine.agg_table_size idx
  in
  Alcotest.(check int) "bare engine" (parts ()) (Engine.total_space idx);
  Engine.attach_cache idx ~budget:500;
  List.iter
    (fun req -> ignore (Engine.answer_tuple idx (Array.of_list req)))
    (requests_2 40 21);
  Alcotest.(check bool) "cache holds something" true (Engine.cache_space idx > 0);
  Alcotest.(check int) "with warm cache" (parts ()) (Engine.total_space idx);
  Engine.enable_agg idx ~db ~budget:10_000;
  Alcotest.(check bool) "agg tables hold something" true
    (Engine.agg_table_size idx > 0);
  Alcotest.(check int) "with aggregates" (parts ()) (Engine.total_space idx);
  Alcotest.(check bool) "strictly above intrinsic space" true
    (Engine.total_space idx > Engine.space idx)

(* Answer op counts, pinned.  Each sum adds up the counted ops of
   [Engine.answer] over a fixed key list on one of the two serving
   fixtures (2-reach over graph 113 at budget 2,000, and 3-reach over
   graph 131 at budget 1,000, built from at most 128 PMTDs), the second
   time after an insert/delete pair has thawed the churn engine's
   S-views.  The answers are checked elsewhere; these sums move only
   when the answer path does a different amount of counted work, and a
   change that moves them records the new values here. *)
let fixture q ~graph ~budget =
  let edges = Graphs.zipf_both ~seed:graph ~vertices:400 ~edges:4000 ~s:1.1 in
  let pmtds = Enum.pmtds ~max_pmtds:128 q in
  (Engine.build q pmtds ~db:(graph_db edges) ~budget, edges)

let answers_and_ops e keys =
  let acc = Engine.access_schema e in
  List.fold_left
    (fun (answers, ops) key ->
      match Engine.answer_batch e [ Relation.singleton acc key ] with
      | [ (r, c) ] -> (sorted r :: answers, ops + Cost.total c)
      | _ -> Alcotest.fail "one answer per request")
    ([], 0) keys

let test_pinned_answer_ops () =
  let point, _ = fixture (Cq.Library.k_path 2) ~graph:113 ~budget:2_000 in
  let point_keys =
    Scenario.zipf_requests ~seed:5 ~n:400 ~requests:2_000 ~skew:1.5 ~arity:2
  in
  Alcotest.(check int) "point fixture" 47_649
    (snd (answers_and_ops point point_keys));
  let churn, edges = fixture (Cq.Library.k_path 3) ~graph:131 ~budget:1_000 in
  let churn_keys =
    Scenario.zipf_requests ~seed:6 ~n:400 ~requests:300 ~skew:1.1 ~arity:2
  in
  let answers, ops = answers_and_ops churn churn_keys in
  Alcotest.(check int) "churn fixture" 191_609 ops;
  (* the first edge (0, v) the graph lacks: inserting and deleting it
     leaves the graph as it was, with the S-views thawed *)
  let v =
    let rec from v = if List.mem (0, v) edges then from (v + 1) else v in
    from 0
  in
  let edge = [| 0; v |] in
  Alcotest.(check bool) "insert" true (fst (Engine.insert churn "R" edge));
  Alcotest.(check bool) "delete" true (fst (Engine.delete churn "R" edge));
  let answers', ops' = answers_and_ops churn churn_keys in
  Alcotest.(check bool) "same answers once thawed" true (answers = answers');
  Alcotest.(check int) "churn fixture, thawed" 191_609 ops'

(* The serving plan of both fixtures.  On churn no rule delegates
   T{x1,x3,x4}, so the two PMTDs that read it never answer, and the
   S{x2,x4} view is empty; the 12 delegated subproblems share 7
   distinct plans, and only the 4 into T{x1,x2,x4} and T{x2,x3,x4} run
   per answer.  Both point PMTDs answer, with every plan. *)
let pmtd p = Format.asprintf "%a" Pmtd.pp p

let test_serving_plan () =
  let plans e =
    List.length (List.concat_map Twopp.plans (Engine.structures e))
  in
  let point, _ = fixture (Cq.Library.k_path 2) ~graph:113 ~budget:2_000 in
  Alcotest.(check int) "point: two PMTDs" 2 (List.length (Engine.pmtds point));
  Alcotest.(check int) "point: both answer" 2
    (List.length (Engine.answering_pmtds point));
  Alcotest.(check int) "point: every plan runs" (plans point)
    (Engine.plans_per_answer point);
  let churn, _ = fixture (Cq.Library.k_path 3) ~graph:131 ~budget:1_000 in
  Alcotest.(check (list string)) "churn: the PMTDs"
    [
      "PMTD(root=0: S{x1,x4})";
      "PMTD(root=0: T{x1,x3,x4} T{x1,x2,x3})";
      "PMTD(root=0: T{x1,x3,x4} S{x1,x3})";
      "PMTD(root=1: T{x1,x2,x4} T{x2,x3,x4})";
      "PMTD(root=1: T{x1,x2,x4} S{x2,x4})";
    ]
    (List.map pmtd (Engine.pmtds churn));
  Alcotest.(check (list string)) "churn: the answering PMTDs"
    [ "PMTD(root=0: S{x1,x4})"; "PMTD(root=1: T{x1,x2,x4} T{x2,x3,x4})" ]
    (List.map pmtd (Engine.answering_pmtds churn));
  Alcotest.(check int) "churn: distinct plans" 7 (plans churn);
  Alcotest.(check int) "churn: plans per answer" 4
    (Engine.plans_per_answer churn)

(* Update op counts, pinned.  Each sum adds up the counted ops of
   [Engine.insert]/[Engine.delete] over the deltas among the first 200
   operations of the fixture graph's churn stream ([Scenario.churn_ops]
   with the graph's seed, so deletes hit its edges), from a fresh build;
   the first effective delta also thaws the S-views.  A delta writes
   each split leaf its tuple reaches, so these sums move when the split
   trees hold more or fewer leaves; a change that moves them records the
   new values here. *)
let update_ops e ~graph =
  List.fold_left
    (fun ops op ->
      match op with
      | Scenario.Insert (u, v) ->
          ops + Cost.total (snd (Engine.insert e "R" [| u; v |]))
      | Scenario.Delete (u, v) ->
          ops + Cost.total (snd (Engine.delete e "R" [| u; v |]))
      | Scenario.Query _ -> ops)
    0
    (Scenario.churn_ops ~seed:graph ~vertices:400 ~edges:4000 ~ops:200
       ~arity:2)

let test_pinned_update_ops () =
  let point, _ = fixture (Cq.Library.k_path 2) ~graph:113 ~budget:2_000 in
  Alcotest.(check int) "point fixture" 16_253 (update_ops point ~graph:113);
  let churn, _ = fixture (Cq.Library.k_path 3) ~graph:131 ~budget:1_000 in
  Alcotest.(check int) "churn fixture" 14_985 (update_ops churn ~graph:131)

(* randomized integration sweep *)
let digraph_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 80) (pair (int_range 0 11) (int_range 0 11)))
      (pair (int_range 0 3) (list_size (int_range 1 6) (pair (int_range 0 11) (int_range 0 11)))))

let qcheck_cases =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"2-reach random graphs and budgets" ~count:40
         digraph_gen
         (fun (edges, (b_exp, reqs)) ->
           let budget = [| 1; 50; 2000; 100000 |].(b_exp) in
           let db = graph_db edges in
           let q = Cq.Library.k_path 2 in
           let idx = Engine.build_auto q ~db ~budget in
           List.for_all
             (fun (u, v) ->
               Engine.answer_tuple idx [| u; v |]
               = not
                   (Relation.is_empty
                      (Db.eval_access db q
                         ~q_a:
                           (Relation.of_list (Schema.of_list [ 0; 2 ])
                              [ [| u; v |] ]))))
             reqs));
  ]

let () =
  Alcotest.run "engine"
    [
      ( "exactness",
        [
          Alcotest.test_case "2-reach across budgets" `Quick test_2reach_budgets;
          Alcotest.test_case "3-reach across budgets" `Quick test_3reach_budgets;
          Alcotest.test_case "square" `Quick test_square;
          Alcotest.test_case "2-set disjointness" `Quick test_set_disjointness;
          Alcotest.test_case "hierarchical" `Quick test_hierarchical;
          Alcotest.test_case "triangle (empty access)" `Quick
            test_triangle_empty_access;
          Alcotest.test_case "batched requests" `Quick test_batched_requests;
          Alcotest.test_case "space accounting" `Quick test_space_reported;
          Alcotest.test_case "total_space sums every store" `Quick
            test_total_space;
          Alcotest.test_case "answer op counts" `Quick test_pinned_answer_ops;
          Alcotest.test_case "serving plan" `Quick test_serving_plan;
          Alcotest.test_case "update op counts" `Quick test_pinned_update_ops;
        ] );
      ("random", qcheck_cases);
    ]
