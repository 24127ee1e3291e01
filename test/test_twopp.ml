(* The executable 2PP: budget compliance, model coverage (every answer
   tuple is witnessed by stored S-targets or online T-targets), and
   storage behaviour across budgets. *)

open Stt_relation
open Stt_hypergraph
open Stt_decomp
open Stt_core
open Stt_workload
module Obs = Stt_obs.Obs

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
    List.length
      (Twopp.plans (Twopp.build rule2 ~base:(base_of (db_of skewed)) ~budget))
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

(* A greedy plan holds each step's match count to a cap taken from the
   build-time degrees, and deltas can grow a leaf past them.  The 2-path
   from x1, with one T-target over all its variables and no S-target,
   builds one unsplit subproblem whose plans both join R(x1,x2), then
   R(x2,x3).  The build graph has out-degree 2, so the cap is
   2 * (1 + 2 + 2 * 2) = 14 per request row, 28 for the two rows below.
   Then a hub gets 6 out-neighbours with 6 out-neighbours each.  The
   first step matches 6 + 2 rows, within the cap, and the last step
   36 + 4, past it: the greedy plan trips in its last step, after
   writing some rows, and the safe plan reruns into the same
   accumulator. *)
let test_cap_fallback () =
  let cq =
    Cq.create ~var_names:[| "x1"; "x2"; "x3" |] ~head:(Varset.of_list [ 0; 2 ])
      [ { Cq.rel = "R"; vars = [ 0; 1 ] }; { Cq.rel = "R"; vars = [ 1; 2 ] } ]
  in
  let cqap = Cq.with_access cq (Varset.singleton 0) in
  let target = Varset.of_list [ 0; 1; 2 ] in
  let r = Rule.make cqap ~s_targets:[] ~t_targets:[ target ] in
  let ring =
    List.init 40 (fun i -> [ (i, (i + 1) mod 40); (i, (i + 7) mod 40) ])
  in
  let db = db_of (List.concat ring) in
  let base =
    List.map
      (fun a -> (a, Live.of_relation (Db.relation db a)))
      cqap.Cq.cq.Cq.atoms
  in
  let s = Twopp.build r ~base ~budget:10 in
  let hub = 100 in
  let fans = List.init 6 (fun i -> 200 + i) in
  let added =
    List.concat_map
      (fun v -> (hub, v) :: List.init 6 (fun j -> (v, 300 + (10 * j) + v)))
      fans
  in
  List.iter
    (fun (u, v) ->
      let tuple = [| u; v |] in
      (* write the base, then route, one atom at a time in query order *)
      List.iter
        (fun (atom, l) ->
          ignore (Live.add l tuple);
          ignore (Twopp.apply_delta s ~atom ~tuple ~add:true))
        base)
    added;
  let edges = List.concat ring @ added in
  let q_a = Relation.of_list (Schema.of_list [ 0 ]) [ [| hub |]; [| 3 |] ] in
  let reference =
    List.concat_map
      (fun (u, v) ->
        if u = hub || u = 3 then
          List.filter_map
            (fun (v', w) -> if v' = v then Some [ u; v; w ] else None)
            edges
        else [])
      edges
    |> List.sort compare
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  let before = Obs.counter_value "twopp.plan_abort" in
  let online = Twopp.online s ~q_a in
  let aborts = Obs.counter_value "twopp.plan_abort" - before in
  Obs.set_enabled was;
  Alcotest.(check bool) "the greedy plan tripped its cap" true (aborts > 0);
  match online with
  | [ (b, rel) ] ->
      Alcotest.(check bool) "the T-target" true (Varset.equal b target);
      Alcotest.(check (list (list int)))
        "every 2-path from the request, once" reference
        (List.sort compare (List.map Array.to_list (Relation.to_list rel)))
  | _ -> Alcotest.fail "one T-target relation expected"

(* A plan's cap is [sat_mul 2 (1 + c)] for the safe plan's worst-case
   estimate [c], which saturates at [max_int / 2], and a request scales
   it by [|Q_A|].  Plain products wrap there: [2 * (1 + max_int / 2)]
   is [min_int], a cap that aborts every greedy plan at its first step
   and that the snapshot writer rejects. *)
let test_sat_mul () =
  let saturated = max_int / 2 in
  Alcotest.(check bool) "the plain product wraps" true
    (2 * (1 + saturated) < 0);
  Alcotest.(check int) "a saturated estimate" max_int
    (Twopp.sat_mul 2 (1 + saturated));
  Alcotest.(check int) "times a request" max_int
    (Twopp.sat_mul max_int 300);
  Alcotest.(check int) "just below the bound" (max_int - 1)
    (Twopp.sat_mul 2 saturated);
  Alcotest.(check int) "small products are exact" 12 (Twopp.sat_mul 3 4);
  Alcotest.(check int) "zero on the left" 0 (Twopp.sat_mul 0 max_int);
  Alcotest.(check int) "zero on the right" 0 (Twopp.sat_mul max_int 0);
  Alcotest.(check int) "one is the identity" max_int (Twopp.sat_mul 1 max_int)

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
          Alcotest.test_case "cap fallback keeps the rows written" `Quick
            test_cap_fallback;
          Alcotest.test_case "the cap saturates" `Quick test_sat_mul;
        ] );
    ]
