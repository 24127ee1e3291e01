(* The executable 2PP: budget compliance, model coverage (every answer
   tuple is witnessed by stored S-targets or online T-targets), and
   storage behaviour across budgets. *)

open Stt_relation
open Stt_hypergraph
open Stt_decomp
open Stt_core
open Stt_workload

let path2 = Cq.Library.k_path 2
let rule2 = List.hd (Rule.generate path2 (Enum.pmtds path2))

let db_of edges =
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  db

(* one relation per atom of the 2-path, as the engine's base holds them *)
let base_of db =
  List.map
    (fun a -> (a, Live.of_relation (Db.relation db a)))
    path2.Cq.cq.Cq.atoms

let skewed = Graphs.zipf_both ~seed:11 ~vertices:200 ~edges:2000 ~s:1.1

let test_budget_respected_per_target () =
  List.iter
    (fun budget ->
      let s = Twopp.build rule2 ~base:(base_of (db_of skewed)) ~budget in
      (* each stored S-target union stays within a small factor of the
         budget (one slice per subproblem) *)
      List.iter
        (fun (_, rel) ->
          Alcotest.check Alcotest.bool
            (Printf.sprintf "budget %d, stored %d" budget
               (Relation.cardinal rel))
            true
            (Relation.cardinal rel <= 4 * budget))
        (Twopp.s_targets s))
    [ 50; 500; 5000 ]

let test_more_budget_fewer_delegations () =
  let delegated budget =
    Twopp.delegated_subproblems
      (Twopp.build rule2 ~base:(base_of (db_of skewed)) ~budget)
  in
  Alcotest.check Alcotest.bool "monotone-ish" true
    (delegated 1_000_000 <= delegated 50)

let test_model_coverage () =
  (* union of stored S13 and online T123 projections must cover the true
     answer of the access CQ *)
  let db = db_of skewed in
  let s = Twopp.build rule2 ~base:(base_of db) ~budget:800 in
  let q_a =
    Relation.of_list
      (Schema.of_list [ 0; 2 ])
      (List.init 50 (fun i -> [| i * 3 mod 200; i * 7 mod 200 |]))
  in
  let truth = Db.eval_access db path2 ~q_a in
  let stored = Twopp.s_targets s in
  let online = Twopp.online s ~q_a in
  let covered tup =
    let find b lst =
      List.find_map
        (fun (b', rel) -> if Varset.equal b b' then Some rel else None)
        lst
    in
    let s13 = Varset.of_list [ 0; 2 ] and t123 = Varset.of_list [ 0; 1; 2 ] in
    (match find s13 stored with
    | Some rel -> Relation.mem rel tup
    | None -> false)
    || (match find s13 online with
       | Some rel -> Relation.mem rel tup
       | None -> false)
    ||
    match find t123 online with
    | Some rel ->
        Relation.fold
          (fun t acc -> acc || (t.(0) = tup.(0) && t.(2) = tup.(1)))
          rel false
    | None -> false
  in
  Relation.iter
    (fun tup ->
      Alcotest.check Alcotest.bool "answer covered" true (covered tup))
    truth

let test_online_soundness () =
  (* T-targets may over-approximate (local exactness) but must never
     contain a tuple violating the atoms inside the target bag *)
  let db = db_of skewed in
  let s = Twopp.build rule2 ~base:(base_of db) ~budget:200 in
  let q_a = Relation.of_list (Schema.of_list [ 0; 2 ]) [ [| 0; 1 |]; [| 5; 9 |] ] in
  let edges = Tuple.Tbl.create 64 in
  List.iter (fun (a, b) -> Tuple.Tbl.replace edges [| a; b |] ()) skewed;
  List.iter
    (fun (b, rel) ->
      if Varset.equal b (Varset.of_list [ 0; 1; 2 ]) then
        Relation.iter
          (fun t ->
            Alcotest.check Alcotest.bool "edge x1->x2 present" true
              (Tuple.Tbl.mem edges [| t.(0); t.(1) |]);
            Alcotest.check Alcotest.bool "edge x2->x3 present" true
              (Tuple.Tbl.mem edges [| t.(1); t.(2) |]))
          rel)
    (Twopp.online s ~q_a)

let test_impossible_rule () =
  (* a rule with only S-targets at a hopeless budget must fail *)
  let r = Rule.make path2 ~s_targets:[ Varset.of_list [ 0; 2 ] ] ~t_targets:[] in
  (* dense bipartite-ish graph: S13 is large *)
  let edges =
    List.concat_map (fun i -> List.map (fun j -> (i, 100 + j)) (List.init 40 Fun.id))
      (List.init 40 Fun.id)
    @ List.concat_map
        (fun i -> List.map (fun j -> (100 + i, 200 + j)) (List.init 40 Fun.id))
        (List.init 40 Fun.id)
  in
  (try
     ignore (Twopp.build r ~base:(base_of (db_of edges)) ~budget:5);
     Alcotest.fail "expected failure"
   with Failure _ -> ());
  (* but with a huge budget it stores fine *)
  let s = Twopp.build r ~base:(base_of (db_of edges)) ~budget:10_000_000 in
  Alcotest.check Alcotest.bool "stored" true (Twopp.space s > 0)

let () =
  Alcotest.run "twopp"
    [
      ( "twopp",
        [
          Alcotest.test_case "budget respected" `Quick
            test_budget_respected_per_target;
          Alcotest.test_case "delegations shrink with budget" `Quick
            test_more_budget_fewer_delegations;
          Alcotest.test_case "model coverage" `Quick test_model_coverage;
          Alcotest.test_case "online local soundness" `Quick
            test_online_soundness;
          Alcotest.test_case "impossible rule" `Quick test_impossible_rule;
        ] );
    ]
