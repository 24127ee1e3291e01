(* Determinism of the parallel build and the batched answer path.

   The domain pool's contract is that job count is invisible: building
   with 1 worker and with 4 workers must produce identical structures,
   identical answers and identical merged Cost snapshots.  We check it
   on a handful of differential-harness instances (random CQAPs, random
   databases), and separately check Pool.map's ordering/merging and that
   [Engine.answer_batch] agrees with per-request [Engine.answer]. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
open Stt_workload

let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

let test_pool_map_order () =
  List.iter
    (fun jobs ->
      let xs = List.init 37 Fun.id in
      let ys = Pool.map ~jobs (fun x -> (x * x) + 1) xs in
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved at %d jobs" jobs)
        (List.map (fun x -> (x * x) + 1) xs)
        ys)
    [ 1; 2; 4 ]

let test_pool_map_exception () =
  match
    Pool.map ~jobs:4
      (fun x -> if x = 5 then failwith "boom" else x)
      (List.init 8 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg

let test_pool_merges_costs () =
  (* every task charges; the merged totals in the parent must equal the
     sequential sum regardless of the job count *)
  let work x =
    for _ = 1 to x do
      Cost.charge_probe ()
    done;
    x
  in
  let xs = List.init 20 (fun i -> i + 1) in
  let expected = List.fold_left ( + ) 0 xs in
  List.iter
    (fun jobs ->
      let (), snap =
        Cost.scoped (fun () -> ignore (Pool.map ~jobs work xs))
      in
      Alcotest.check Alcotest.int
        (Printf.sprintf "probes at %d jobs" jobs)
        expected snap.Cost.probes)
    [ 1; 4 ]

let test_pool_respects_counting_flag () =
  let (), snap =
    Cost.scoped (fun () ->
        Cost.with_counting false (fun () ->
            ignore
              (Pool.map ~jobs:4
                 (fun x ->
                   Cost.charge_scan ();
                   x)
                 (List.init 8 Fun.id))))
  in
  Alcotest.check Alcotest.int "workers inherit disabled counting" 0
    (Cost.total snap)

(* three deltas drawn from the instance seed: inserts of random tuples
   and deletes of present ones *)
let deltas_of (inst : Diff_harness.instance) =
  let rng = Rng.create (inst.Diff_harness.seed lxor 0xDE17A) in
  let atoms = Array.of_list inst.Diff_harness.cqap.Cq.cq.Cq.atoms in
  List.init 3 (fun _ ->
      let a = atoms.(Rng.int rng (Array.length atoms)) in
      let present =
        List.sort compare
          (Relation.to_list (Db.relation inst.Diff_harness.db a))
      in
      if present <> [] && Rng.bool rng then
        (a.Cq.rel, List.nth present (Rng.int rng (List.length present)), false)
      else
        ( a.Cq.rel,
          Array.init (List.length a.Cq.vars) (fun _ -> Rng.int rng 8),
          true ))

(* build + answer one differential-harness instance at a given job
   count, then apply three deltas one batch at a time (stopping at the
   first [Failure]) and answer again, returning everything observable:
   space, per-PMTD spaces, the sorted answer, the online cost snapshot,
   each delta's outcome (applied count and cost, or [None] for a
   failure) and the sorted post-delta answer *)
let run_instance i jobs =
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) @@ fun () ->
  let rec attempt k =
    let inst = Diff_harness.gen_instance (0xBEEF + (1000 * i) + k) in
    match Diff_harness.build_index inst with
    | exception Diff_harness.Skip _ when k < 20 -> attempt (k + 1)
    | exception Diff_harness.Skip reason ->
        Alcotest.failf "instance %d: unbuildable (%s)" i reason
    | idx, _ ->
        let q_a = inst.Diff_harness.q_a in
        let space = Engine.space idx in
        let per_pmtd = List.map snd (Engine.per_pmtd_space idx) in
        let answer, snap = Cost.scoped (fun () -> Engine.answer idx ~q_a) in
        let rec maintain = function
          | [] -> []
          | d :: rest -> (
              match Engine.apply_deltas idx [ d ] with
              | outcome -> Some outcome :: maintain rest
              | exception Failure _ -> [ None ])
        in
        let outcomes = maintain (deltas_of inst) in
        let after =
          if List.mem None outcomes then []
          else sorted (Engine.answer idx ~q_a)
        in
        (space, per_pmtd, sorted answer, snap, outcomes, after)
  in
  attempt 0

let test_jobs_determinism () =
  for i = 0 to 9 do
    let space1, per1, ans1, cost1, deltas1, after1 = run_instance i 1 in
    let space4, per4, ans4, cost4, deltas4, after4 = run_instance i 4 in
    Alcotest.check Alcotest.int
      (Printf.sprintf "instance %d: space" i)
      space1 space4;
    Alcotest.(check (list int))
      (Printf.sprintf "instance %d: per-PMTD space" i)
      per1 per4;
    Alcotest.(check (list (list int)))
      (Printf.sprintf "instance %d: answers" i)
      ans1 ans4;
    Alcotest.check Alcotest.int
      (Printf.sprintf "instance %d: online probes" i)
      cost1.Cost.probes cost4.Cost.probes;
    Alcotest.check Alcotest.int
      (Printf.sprintf "instance %d: online tuples" i)
      cost1.Cost.tuples cost4.Cost.tuples;
    Alcotest.check Alcotest.int
      (Printf.sprintf "instance %d: online scans" i)
      cost1.Cost.scans cost4.Cost.scans;
    Alcotest.check Alcotest.bool
      (Printf.sprintf
         "instance %d: same delta outcomes (failures, applied counts, costs)" i)
      true (deltas1 = deltas4);
    Alcotest.(check (list (list int)))
      (Printf.sprintf "instance %d: post-delta answers" i)
      after1 after4
  done

let test_answer_batch_matches_answer () =
  (* a real sliceable query (k-path: access = head endpoints) with a
     duplicate-heavy request stream *)
  let q = Cq.Library.k_path 2 in
  let edges = Graphs.zipf_both ~seed:71 ~vertices:120 ~edges:1_500 ~s:1.2 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  let idx = Engine.build_auto ~max_pmtds:64 q ~db ~budget:500 in
  let schema = Engine.access_schema idx in
  let rng = Rng.create 5 in
  let sample = Rng.zipf_sampler rng ~n:120 ~s:1.4 in
  let reqs =
    List.init 100 (fun _ ->
        Relation.singleton schema [| sample (); sample () |])
  in
  let batched, batch_cost =
    Cost.scoped (fun () -> Engine.answer_batch idx reqs)
  in
  let singles, single_cost =
    Cost.scoped (fun () -> List.map (fun q_a -> Engine.answer idx ~q_a) reqs)
  in
  List.iteri
    (fun i ((b, _), s) ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "request %d answer" i)
        (sorted s) (sorted b))
    (List.combine batched singles);
  (* per-request shares sum exactly to the counted batch total *)
  let sum =
    List.fold_left (fun acc (_, c) -> Cost.add acc c) Cost.zero batched
  in
  Alcotest.check Alcotest.int "shares sum to batch total (probes)"
    batch_cost.Cost.probes sum.Cost.probes;
  Alcotest.check Alcotest.int "shares sum to batch total (tuples)"
    batch_cost.Cost.tuples sum.Cost.tuples;
  Alcotest.check Alcotest.int "shares sum to batch total (scans)"
    batch_cost.Cost.scans sum.Cost.scans;
  (* sharing must not cost more ops than answering one by one *)
  if Cost.total batch_cost > Cost.total single_cost then
    Alcotest.failf "batch costs more than per-request answering (%d > %d)"
      (Cost.total batch_cost) (Cost.total single_cost)

let test_answer_batch_non_sliceable () =
  (* boolean-style query whose access variables are not in the head:
     falls back to memoized per-request answering, results still match *)
  let q = Cq.Library.k_set_disjointness 2 in
  let memberships =
    Sets.zipf_sizes ~seed:31 ~universe:200 ~sets:60 ~memberships:1_200 ~s:1.2
  in
  let db = Db.create () in
  Db.add_pairs db "R" memberships;
  let idx = Engine.build_auto ~max_pmtds:64 q ~db ~budget:400 in
  let schema = Engine.access_schema idx in
  let rng = Rng.create 6 in
  let reqs =
    List.init 40 (fun _ ->
        Relation.singleton schema [| Rng.int rng 60; Rng.int rng 60 |])
  in
  let batched = Engine.answer_batch idx reqs in
  List.iteri
    (fun i ((b, _), q_a) ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "request %d answer" i)
        (sorted (Engine.answer idx ~q_a))
        (sorted b))
    (List.combine batched reqs)

let test_env_jobs_parsing () =
  Alcotest.check Alcotest.bool "jobs is positive" true (Pool.jobs () >= 1);
  Pool.set_jobs 3;
  Alcotest.check Alcotest.int "set_jobs" 3 (Pool.jobs ());
  Pool.set_jobs 1;
  Alcotest.check Alcotest.bool "set_jobs rejects 0" true
    (match Pool.set_jobs 0 with
    | () -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "map re-raises" `Quick test_pool_map_exception;
          Alcotest.test_case "map merges costs" `Quick test_pool_merges_costs;
          Alcotest.test_case "map respects counting flag" `Quick
            test_pool_respects_counting_flag;
          Alcotest.test_case "jobs knob" `Quick test_env_jobs_parsing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "STT_JOBS=1 vs 4: identical builds and costs"
            `Slow test_jobs_determinism;
        ] );
      ( "batch",
        [
          Alcotest.test_case "answer_batch = answer (sliceable)" `Quick
            test_answer_batch_matches_answer;
          Alcotest.test_case "answer_batch = answer (fallback)" `Quick
            test_answer_batch_non_sliceable;
        ] );
    ]
