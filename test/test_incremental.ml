(* Churn differential for incremental index maintenance: interleaved
   inserts, deletes and answers against one long-lived engine with an
   answer cache, checked after every delta against (a) the brute-force
   reference evaluator, request by request, and (b) an engine rebuilt
   from scratch on the mutated database.  Everything derives from a
   fixed base seed.

   Also covers the edge cases a delta engine classically gets wrong —
   redundant inserts (the tuple is already there) and deleting the last
   witness of a derived answer — plus the snapshot story: an engine
   that has absorbed deltas must save/load into an observationally
   identical replica (same answers, same op counts, same epoch), and
   the replica must reject further deltas.  A batch is checked whole
   before any write, aggregate answers follow the live base, a delta's
   work follows the tuple's neighbourhood, not the relation's size, and
   the PMTDs an answer runs follow the deltas that fill or empty an
   S-view or delegate a new T-target. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
open Stt_workload
open Diff_harness
module Semiring = Stt_semiring.Semiring
module Eval = Stt_semiring.Eval
module Obs = Stt_obs.Obs

let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

let pp_tuples fmt ts =
  Format.fprintf fmt "{%s}"
    (String.concat "; "
       (List.map
          (fun t -> "(" ^ String.concat "," (List.map string_of_int t) ^ ")")
          ts))

(* ------------------------------------------------------------------ *)
(* mirror database: name-keyed mutable tuple sets                       *)
(* ------------------------------------------------------------------ *)

type mirror = (string, unit Tuple.Tbl.t) Hashtbl.t

let mirror_of_instance inst : mirror =
  let m = Hashtbl.create 8 in
  List.iter
    (fun (a : Cq.atom) ->
      if not (Hashtbl.mem m a.Cq.rel) then begin
        let set = Tuple.Tbl.create 32 in
        Relation.iter
          (fun tup -> Tuple.Tbl.replace set tup ())
          (Db.relation inst.db a);
        Hashtbl.add m a.Cq.rel set
      end)
    inst.cqap.Cq.cq.Cq.atoms;
  m

let db_of_mirror (m : mirror) =
  let db = Db.create () in
  Hashtbl.iter
    (fun rel set ->
      Db.add db rel (Tuple.Tbl.fold (fun tup () acc -> tup :: acc) set []))
    m;
  db

let mirror_apply (m : mirror) rel tuple add =
  let set = Hashtbl.find m rel in
  let present = Tuple.Tbl.mem set tuple in
  if add then begin
    if not present then Tuple.Tbl.replace set tuple ();
    not present
  end
  else begin
    if present then Tuple.Tbl.remove set tuple;
    present
  end

(* every rule's split leaves against its base relations, recomputed
   ({!Twopp.check_splits}) *)
let check_splits what eng =
  List.iteri
    (fun i s ->
      match Twopp.check_splits s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s, rule %d: %s" what i e)
    (Engine.structures eng)

(* ------------------------------------------------------------------ *)
(* the churn differential                                               *)
(* ------------------------------------------------------------------ *)

let n_instances = 200
let base_seed = 0x5EED1E
let deltas_per_instance = 6

let run_one i =
  let rec attempt k =
    let seed = base_seed + (1000 * i) + k in
    let inst = gen_instance seed in
    match build_index inst with
    | exception Skip reason ->
        if k >= 20 then
          Alcotest.failf "instance %d: no buildable query after %d tries (%s)"
            i (k + 1) reason
        else attempt (k + 1)
    | idx, _used_budget ->
        let rng = Rng.create (seed lxor 0xD317A) in
        let mirror = mirror_of_instance inst in
        let rels =
          List.sort_uniq compare
            (List.map
               (fun (a : Cq.atom) -> (a.Cq.rel, List.length a.Cq.vars))
               inst.cqap.Cq.cq.Cq.atoms)
        in
        (* aggregate tables and a cache: every answer below is also
           cached, so a stale entry the delta failed to invalidate shows
           up as a wrong answer after the next delta *)
        let serving e db =
          Engine.enable_agg e ~db ~budget:16;
          Engine.attach_cache e ~budget:10_000;
          e
        in
        let engine = ref (serving idx inst.db) in
        let singles =
          List.map
            (Relation.singleton (Relation.schema inst.q_a))
            (Relation.to_list inst.q_a)
        in
        (* the batch and each of its tuples as its own request *)
        let check_answers step =
          let db' = db_of_mirror mirror in
          List.iter
            (fun q_a ->
              let expected = sorted (Db.eval_access db' inst.cqap ~q_a) in
              let got = sorted (Engine.answer !engine ~q_a) in
              if got <> expected then
                Alcotest.failf
                  "instance %d (seed %d) after delta %d: maintained engine \
                   disagrees with reference on %a@\n\
                   query: %a@\nexpected %a@\ngot      %a"
                  i seed step pp_tuples (sorted q_a) Cq.pp_cqap inst.cqap
                  pp_tuples expected pp_tuples got)
            (inst.q_a :: singles);
          db'
        in
        ignore (check_answers 0);
        let check step =
          check_splits
            (Printf.sprintf "instance %d (seed %d) after delta %d" i seed step)
            !engine;
          let db' = check_answers step in
          let got = sorted (Engine.answer !engine ~q_a:inst.q_a) in
          (* every aggregate over the live base against a brute-force
             fold over the mirror *)
          List.iter
            (fun k ->
              let got, _ = Engine.answer_agg !engine k ~q_a:inst.q_a in
              let brute =
                Eval.brute k
                  (List.map
                     (fun a -> Eval.of_relation k (Db.relation db' a))
                     inst.cqap.Cq.cq.Cq.atoms)
                  ~q_a:inst.q_a
              in
              if got <> brute then
                Alcotest.failf
                  "instance %d (seed %d) after delta %d: %s %d, brute fold %d"
                  i seed step (Semiring.name k) got brute)
            Semiring.all;
          (* from-scratch rebuild on the mutated database must agree *)
          let rebuilt, _ = build_index { inst with db = db' } in
          let fresh = sorted (Engine.answer rebuilt ~q_a:inst.q_a) in
          if got <> fresh then
            Alcotest.failf
              "instance %d (seed %d) after delta %d: maintained engine \
               disagrees with from-scratch rebuild@\n\
               query: %a@\nrebuilt %a@\ngot     %a"
              i seed step Cq.pp_cqap inst.cqap pp_tuples fresh pp_tuples got
        in
        for step = 1 to deltas_per_instance do
          let rel, arity = List.nth rels (Rng.int rng (List.length rels)) in
          let set = Hashtbl.find mirror rel in
          let add =
            Tuple.Tbl.length set = 0
            || (match Rng.int rng 10 with 0 | 1 | 2 | 3 -> false | _ -> true)
          in
          let tuple =
            if (not add) && Rng.int rng 4 > 0 then begin
              (* delete a live tuple (landing on the n-th of the set) *)
              let n = Rng.int rng (Tuple.Tbl.length set) in
              let j = ref 0 and out = ref [||] in
              (try
                 Tuple.Tbl.iter
                   (fun tup () ->
                     if !j = n then begin
                       out := tup;
                       raise Exit
                     end;
                     incr j)
                   set
               with Exit -> ());
              Array.copy !out
            end
            else Array.init arity (fun _ -> Rng.int rng 9)
          in
          let expected_effective = mirror_apply mirror rel tuple add in
          let epoch_before = Engine.epoch !engine in
          (match
             if add then Engine.insert !engine rel tuple
             else Engine.delete !engine rel tuple
           with
          | effective, _cost ->
              if effective <> expected_effective then
                Alcotest.failf
                  "instance %d (seed %d) delta %d: %s of %s reported \
                   effective=%b, mirror says %b"
                  i seed step
                  (if add then "insert" else "delete")
                  rel effective expected_effective;
              let expect_epoch =
                epoch_before + if expected_effective then 1 else 0
              in
              if Engine.epoch !engine <> expect_epoch then
                Alcotest.failf
                  "instance %d (seed %d) delta %d: epoch %d, expected %d" i
                  seed step (Engine.epoch !engine) expect_epoch
          | exception Failure _ ->
              (* a newly non-empty subproblem can be impossible at the
                 build budget, exactly like a failed build; the engine
                 is poisoned, so rebuild and continue the stream *)
              let db' = db_of_mirror mirror in
              let rebuilt, _ = build_index { inst with db = db' } in
              engine := serving rebuilt db');
          check step
        done
  in
  attempt 0

let test_churn_differential () =
  for i = 0 to n_instances - 1 do
    run_one i
  done

(* ------------------------------------------------------------------ *)
(* deterministic edge cases: 2-path R(x,y), S(y,z), access x, head x z  *)
(* ------------------------------------------------------------------ *)

let build_path ?(budget = 1000) ~r_rows ~s_rows () =
  let atoms =
    [ { Cq.rel = "R"; vars = [ 0; 1 ] }; { Cq.rel = "S"; vars = [ 1; 2 ] } ]
  in
  let cq =
    Cq.create
      ~var_names:[| "x"; "y"; "z" |]
      ~head:(Varset.of_list [ 0; 2 ])
      atoms
  in
  let cqap = Cq.with_access cq (Varset.singleton 0) in
  let db = Db.create () in
  Db.add db "R" r_rows;
  Db.add db "S" s_rows;
  (cqap, db, Engine.build_auto ~max_pmtds:64 cqap ~db ~budget)

let q_x v = Relation.of_list (Schema.of_list [ 0 ]) [ [| v |] ]

(* 2-reach over a skewed 4,000-edge graph at budget 2,000 — the fixture
   of perfbench's point-2reach workload *)
let point_fixture () =
  let edges = Graphs.zipf_both ~seed:113 ~vertices:400 ~edges:4000 ~s:1.1 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  ( edges,
    Engine.build_auto ~max_pmtds:128 (Cq.Library.k_path 2) ~db ~budget:2000 )

let test_redundant_insert () =
  let _, _, eng = build_path ~r_rows:[ [| 1; 2 |] ] ~s_rows:[ [| 2; 3 |] ] () in
  let before = sorted (Engine.answer eng ~q_a:(q_x 1)) in
  Alcotest.(check (list (list int))) "initial answer" [ [ 1; 3 ] ] before;
  (* inserting a tuple that is already present must be a no-op *)
  let effective, _ = Engine.insert eng "R" [| 1; 2 |] in
  Alcotest.(check bool) "redundant insert ineffective" false effective;
  Alcotest.(check int) "epoch unchanged" 0 (Engine.epoch eng);
  Alcotest.(check (list (list int)))
    "answer unchanged" before
    (sorted (Engine.answer eng ~q_a:(q_x 1)));
  (* deleting a tuple that was never there is equally a no-op *)
  let effective, _ = Engine.delete eng "S" [| 9; 9 |] in
  Alcotest.(check bool) "redundant delete ineffective" false effective;
  Alcotest.(check int) "epoch still unchanged" 0 (Engine.epoch eng);
  (* on a larger index a redundant delta must not even thaw the views:
     the space stays as built and the delta costs nothing *)
  let edges, eng = point_fixture () in
  Alcotest.(check int) "built space" 2326 (Engine.space eng);
  let u, v = List.hd edges in
  let effective, cost = Engine.insert eng "R" [| u; v |] in
  Alcotest.(check bool) "redundant insert ineffective" false effective;
  Alcotest.(check int) "redundant insert costs nothing" 0 (Cost.total cost);
  Alcotest.(check int) "space after the redundant insert" 2326
    (Engine.space eng);
  let effective, cost = Engine.delete eng "R" [| 400; 401 |] in
  Alcotest.(check bool) "redundant delete ineffective" false effective;
  Alcotest.(check int) "redundant delete costs nothing" 0 (Cost.total cost);
  Alcotest.(check int) "space after the redundant delete" 2326
    (Engine.space eng)

let test_batch_checked_before_writes () =
  let edges, eng = point_fixture () in
  let present = Hashtbl.create 4096 in
  List.iter (fun e -> Hashtbl.replace present e ()) edges;
  (* a new edge a -> b into a vertex with successors, so the requests
     (a, c) for every successor c of b see it *)
  let a, b =
    List.find
      (fun (a, b) -> a <> b && not (Hashtbl.mem present (a, b)))
      (List.concat_map (fun (x, _) -> [ (0, x); (1, x); (2, x) ]) edges)
  in
  let reqs =
    List.filter_map
      (fun (x, c) ->
        if x = b then
          Some (Relation.singleton (Engine.access_schema eng) [| a; c |])
        else None)
      edges
  in
  let answers () = List.map (fun q_a -> sorted (Engine.answer eng ~q_a)) reqs in
  let before = answers () in
  List.iter
    (fun (what, bad) ->
      (match Engine.apply_deltas eng [ ("R", [| a; b |], true); bad ] with
      | _ -> Alcotest.failf "%s: the batch was accepted" what
      | exception Failure _ -> ());
      Alcotest.(check int) (what ^ ": epoch unchanged") 0 (Engine.epoch eng);
      Alcotest.(check int) (what ^ ": space unchanged") 2326 (Engine.space eng);
      Alcotest.(check bool) (what ^ ": answers unchanged") true
        (answers () = before))
    [
      ("wrong arity", ("R", [| 1 |], true));
      ("unknown relation", ("S", [| 1; 2 |], true));
    ];
  let effective, _ = Engine.insert eng "R" [| a; b |] in
  Alcotest.(check bool) "the good delta alone is effective" true effective;
  Alcotest.(check int) "one effective delta" 1 (Engine.epoch eng);
  Alcotest.(check bool) "and it reaches the answers" true (answers () <> before)

let test_last_witness_delete () =
  (* (1,3) has two witnesses through y ∈ {2, 4}; (1,5) has one *)
  let _, _, eng =
    build_path
      ~r_rows:[ [| 1; 2 |]; [| 1; 4 |] ]
      ~s_rows:[ [| 2; 3 |]; [| 4; 3 |]; [| 4; 5 |] ]
      ()
  in
  Alcotest.(check (list (list int)))
    "both answers present"
    [ [ 1; 3 ]; [ 1; 5 ] ]
    (sorted (Engine.answer eng ~q_a:(q_x 1)));
  (* drop one witness of (1,3): the answer must survive via the other *)
  let effective, _ = Engine.delete eng "S" [| 2; 3 |] in
  Alcotest.(check bool) "witness delete effective" true effective;
  Alcotest.(check (list (list int)))
    "answer survives on the second witness"
    [ [ 1; 3 ]; [ 1; 5 ] ]
    (sorted (Engine.answer eng ~q_a:(q_x 1)));
  (* drop the last witness: now (1,3) must disappear, (1,5) stay *)
  let effective, _ = Engine.delete eng "S" [| 4; 3 |] in
  Alcotest.(check bool) "last-witness delete effective" true effective;
  Alcotest.(check (list (list int)))
    "answer gone with its last witness"
    [ [ 1; 5 ] ]
    (sorted (Engine.answer eng ~q_a:(q_x 1)));
  (* and it comes back on re-insert *)
  let effective, _ = Engine.insert eng "S" [| 2; 3 |] in
  Alcotest.(check bool) "re-insert effective" true effective;
  Alcotest.(check (list (list int)))
    "answer restored"
    [ [ 1; 3 ]; [ 1; 5 ] ]
    (sorted (Engine.answer eng ~q_a:(q_x 1)));
  Alcotest.(check int) "three effective deltas" 3 (Engine.epoch eng)

(* The serving plan follows deltas.  The 2-path has one rule, S{x,z} or
   T{x,y,z}, and one PMTD for each target.  With S empty at build no
   subproblem is decided, so no PMTD answers.  At budget 1, inserting
   S(2,3) stores the one row (1,3), which (a) fills the empty S-view,
   and deleting it (b) empties that view again.  At budget 0 the same
   insert (c) delegates T{x,y,z}, which no plan had.  Every answer is
   checked against the reference, and the answering PMTDs are those
   whose views can hold rows. *)
let test_serving_follows_deltas () =
  let check what (cqap, eng) ~s_rows ~answering =
    let db = Db.create () in
    Db.add db "R" [ [| 1; 2 |] ];
    Db.add db "S" s_rows;
    List.iter
      (fun x ->
        let q_a = q_x x in
        Alcotest.(check (list (list int)))
          (Printf.sprintf "%s: request x = %d" what x)
          (sorted (Db.eval_access db cqap ~q_a))
          (sorted (Engine.answer eng ~q_a)))
      [ 1; 2; 5 ];
    Alcotest.(check (list string))
      (what ^ ": answering PMTDs")
      answering
      (List.map
         (fun p ->
           if Stt_decomp.Pmtd.s_views p = [] then "T{x,y,z}" else "S{x,z}")
         (Engine.answering_pmtds eng))
  in
  let delta eng rel tuple add =
    Alcotest.(check bool) "effective" true
      (fst ((if add then Engine.insert else Engine.delete) eng rel tuple))
  in
  let plans eng =
    List.length (List.concat_map Twopp.plans (Engine.structures eng))
  in
  let cqap, _, eng =
    build_path ~budget:1 ~r_rows:[ [| 1; 2 |] ] ~s_rows:[] ()
  in
  check "budget 1, built" (cqap, eng) ~s_rows:[] ~answering:[];
  delta eng "S" [| 2; 3 |] true;
  check "(a) S(2,3) fills S{x,z}" (cqap, eng) ~s_rows:[ [| 2; 3 |] ]
    ~answering:[ "S{x,z}" ];
  delta eng "S" [| 2; 3 |] false;
  check "(b) deleting it empties S{x,z}" (cqap, eng) ~s_rows:[] ~answering:[];
  let cqap, _, eng =
    build_path ~budget:0 ~r_rows:[ [| 1; 2 |] ] ~s_rows:[] ()
  in
  check "budget 0, built" (cqap, eng) ~s_rows:[] ~answering:[];
  Alcotest.(check int) "budget 0: no plan" 0 (plans eng);
  delta eng "S" [| 2; 3 |] true;
  check "(c) S(2,3) delegates T{x,y,z}" (cqap, eng) ~s_rows:[ [| 2; 3 |] ]
    ~answering:[ "T{x,y,z}" ];
  Alcotest.(check int) "budget 0: one plan" 1 (plans eng);
  Alcotest.(check int) "budget 0: run per answer" 1
    (Engine.plans_per_answer eng)

(* R appears at both atoms of the 2-path, so one delta reaches two atoms,
   and a self-loop serves both atoms of one derivation: deleting (v,v)
   must drop the answers whose only path is v -> v -> v.  Small dense
   graphs, every access pair, checked against the reference after every
   delta (an impossible activation rebuilds, as in the churn test).  A
   cache holds the batch and every pair as its own request, so a delete
   must invalidate before the base loses the tuple and an insert after
   it has it, at both atoms. *)
let test_self_join_deltas () =
  let q = Cq.Library.k_path 2 in
  List.iter
    (fun (seed, budget) ->
      let rng = Rng.create seed in
      let edges = Hashtbl.create 16 in
      for _ = 1 to 8 do
        Hashtbl.replace edges (Rng.int rng 4, Rng.int rng 4) ()
      done;
      let db_now () =
        let db = Db.create () in
        Db.add_pairs db "R" (Hashtbl.fold (fun e () acc -> e :: acc) edges []);
        db
      in
      let build () =
        let e = Engine.build_auto ~max_pmtds:64 q ~db:(db_now ()) ~budget in
        Engine.attach_cache e ~budget:1_000;
        e
      in
      let eng = ref (build ()) in
      let pairs = List.init 16 (fun i -> [| i / 4; i mod 4 |]) in
      let q_a = Relation.of_list (Engine.access_schema !eng) pairs in
      let requests =
        q_a :: List.map (Relation.singleton (Engine.access_schema !eng)) pairs
      in
      List.iter (fun q_a -> ignore (Engine.answer !eng ~q_a)) requests;
      for step = 1 to 16 do
        let ((u, v) as e) = (Rng.int rng 4, Rng.int rng 4) in
        let add = not (Hashtbl.mem edges e) in
        if add then Hashtbl.replace edges e () else Hashtbl.remove edges e;
        (match
           if add then Engine.insert !eng "R" [| u; v |]
           else Engine.delete !eng "R" [| u; v |]
         with
        | effective, _ ->
            Alcotest.(check bool) "every delta is effective" true effective
        | exception Failure _ -> eng := build ());
        List.iter
          (fun q_a ->
            let expected = sorted (Db.eval_access (db_now ()) q ~q_a) in
            let got = sorted (Engine.answer !eng ~q_a) in
            if got <> expected then
              Alcotest.failf
                "seed %d budget %d, after %s (%d,%d) at step %d, request \
                 %a:@\n\
                 expected %a@\ngot      %a"
                seed budget
                (if add then "inserting" else "deleting")
                u v step pp_tuples (sorted q_a) pp_tuples expected pp_tuples
                got)
          requests
      done)
    [ (1, 1); (2, 2); (3, 4); (4, 16); (5, 1000); (6, 1); (7, 4); (8, 1000) ]

(* A delta's work follows the tuple's neighbourhood, not |R|: on 3-reach
   over an 8,000-edge Zipf graph with a warm cache, deltas around a path
   hanging off the graph (and one edge joining the path to itself) cost
   a few hundred counted ops, where joining against whole base
   relations costs tens of thousands. *)
let test_neighbourhood_bound () =
  let path = List.init 5 (fun i -> (10000 + i, 10001 + i)) in
  let edges = Hashtbl.create 8192 in
  List.iter
    (fun e -> Hashtbl.replace edges e ())
    (Graphs.zipf_both ~seed:131 ~vertices:400 ~edges:8000 ~s:1.1 @ path);
  let db_now () =
    let db = Db.create () in
    Db.add_pairs db "R" (Hashtbl.fold (fun e () acc -> e :: acc) edges []);
    db
  in
  let q = Cq.Library.k_path 3 in
  let eng = Engine.build_auto ~max_pmtds:128 q ~db:(db_now ()) ~budget:1000 in
  Engine.attach_cache eng ~budget:5000;
  let request (u, v) =
    Relation.singleton (Engine.access_schema eng) [| u; v |]
  in
  List.iter
    (fun e -> ignore (Engine.answer eng ~q_a:(request e)))
    [ (10000, 10003); (1, 2); (3, 4) ];
  (* one insert/delete pair pays the thaw *)
  ignore (Engine.insert eng "R" [| 10002; 10010 |]);
  ignore (Engine.delete eng "R" [| 10002; 10010 |]);
  let delta ((u, v), add) =
    let effective, cost =
      (if add then Engine.insert else Engine.delete) eng "R" [| u; v |]
    in
    let what =
      Printf.sprintf "%s (%d,%d)" (if add then "insert" else "delete") u v
    in
    Alcotest.(check bool) (what ^ " is effective") true effective;
    if Cost.total cost >= 500 then
      Alcotest.failf "%s cost %d counted ops (probes %d, tuples %d, scans %d)"
        what (Cost.total cost) cost.Cost.probes cost.Cost.tuples
        cost.Cost.scans;
    if add then Hashtbl.replace edges (u, v) ()
    else Hashtbl.remove edges (u, v);
    (* the cached path answer follows every delta *)
    let q_a = request (10000, 10003) in
    Alcotest.(check (list (list int)))
      ("(10000,10003) after " ^ what)
      (sorted (Db.eval_access (db_now ()) q ~q_a))
      (sorted (Engine.answer eng ~q_a))
  in
  List.iter
    (fun e -> List.iter delta [ (e, true); (e, false) ])
    [ (10001, 10011); (10003, 10012); (10000, 10004); (10004, 10001) ];
  List.iter (fun e -> List.iter delta [ (e, false); (e, true) ]) path

(* the atoms split under each [twopp.build] span of a trace, one entry
   per [twopp.split] span *)
let split_atoms_per_build trace =
  let open Stt_obs.Json in
  let str key j = match member key j with Some (String s) -> s | _ -> "" in
  let kids j = match member "children" j with Some (List l) -> l | _ -> [] in
  let rec spans name j =
    (if str "name" j = name then [ j ] else [])
    @ List.concat_map (spans name) (kids j)
  in
  let roots = match member "spans" trace with Some (List l) -> l | _ -> [] in
  List.map
    (fun b ->
      List.map
        (fun s ->
          match member "attrs" s with Some a -> str "atom" a | None -> "")
        (spans "twopp.split" b))
    (List.concat_map (spans "twopp.build") roots)

(* 4-path at budget 3,000 over a small Zipf graph: two of its 23 rules
   split one atom twice, the one case where an atom's split tree nests,
   so a delta can move tuples between the parts of a part.  A Zipf churn
   stream of about 50 deltas runs against it, and every query of the
   stream is checked against the reference.  The trace check keeps the
   case from silently losing its nested split.  After every delta each
   rule's leaves are checked against a fresh split of the base: the
   answers alone miss a tuple a split filed in the wrong leaf or
   dropped, since the other rules derive the same answers. *)
let test_nested_splits () =
  let q = Cq.Library.k_path 4 in
  let seed = 5 and vertices = 60 and edges = 500 in
  let live = Hashtbl.create 1024 in
  List.iter
    (fun e -> Hashtbl.replace live e ())
    (Graphs.zipf_both ~seed ~vertices ~edges ~s:1.1);
  let db_now () =
    let db = Db.create () in
    Db.add_pairs db "R" (Hashtbl.fold (fun e () acc -> e :: acc) live []);
    db
  in
  let build () = Engine.build_auto q ~db:(db_now ()) ~budget:3_000 in
  let eng, trace =
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        Obs.reset ();
        let e = build () in
        (e, Obs.trace ()))
  in
  Alcotest.(check bool) "some rule splits one atom twice" true
    (List.exists
       (fun atoms ->
         List.compare_lengths (List.sort_uniq compare atoms) atoms < 0)
       (split_atoms_per_build trace));
  let eng = ref eng and deltas = ref 0 and checks = ref 0 in
  let delta (u, v) add =
    if add then Hashtbl.replace live (u, v) () else Hashtbl.remove live (u, v);
    let apply = if add then Engine.insert else Engine.delete in
    (match apply !eng "R" [| u; v |] with
    | effective, _ -> if effective then incr deltas
    | exception Failure _ -> eng := build ());
    check_splits
      (Printf.sprintf "after %s (%d,%d)"
         (if add then "inserting" else "deleting")
         u v)
      !eng
  in
  List.iter
    (function
      | Scenario.Insert (u, v) -> delta (u, v) true
      | Scenario.Delete (u, v) -> delta (u, v) false
      | Scenario.Query key ->
          incr checks;
          let q_a = Relation.singleton (Engine.access_schema !eng) key in
          let expected = sorted (Db.eval_access (db_now ()) q ~q_a) in
          let got = sorted (Engine.answer !eng ~q_a) in
          if got <> expected then
            Alcotest.failf
              "after %d effective deltas, request %a:@\n\
               expected %a@\ngot      %a"
              !deltas pp_tuples (sorted q_a) pp_tuples expected pp_tuples got)
    (Scenario.churn_ops ~seed ~vertices ~edges ~ops:110 ~arity:2);
  (* 29 of the stream's 50 deltas are effective (Zipf inserts repeat
     edges of the dense core), and 60 requests are checked *)
  Alcotest.(check bool) "deltas and checks ran" true
    (!deltas >= 25 && !checks >= 50)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* save [eng], load it back and save the replica again: the replica has
   the same epoch, the answering PMTDs with their space, and the same
   plans per answer, answers [reqs] with the same rows and op counts,
   rejects further deltas, and re-saves to the same bytes *)
let check_snapshot what eng ~epoch reqs =
  let path = Filename.temp_file "stt_incr" ".snap" in
  let again = Filename.temp_file "stt_incr" ".snap" in
  Fun.protect ~finally:(fun () ->
      Sys.remove path;
      Sys.remove again)
  @@ fun () ->
  (match Engine.save eng path with
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "%s: save failed" what);
  let loaded =
    match Engine.load path with
    | Ok l -> l
    | Error _ -> Alcotest.failf "%s: load failed" what
  in
  Alcotest.(check int) (what ^ ": epoch round-trips") epoch
    (Engine.epoch loaded);
  let answering = Engine.answering_pmtds eng in
  let pmtd p = Format.asprintf "%a" Stt_decomp.Pmtd.pp p in
  Alcotest.(check int)
    (what ^ ": the answering PMTDs' space round-trips")
    (List.fold_left
       (fun acc (p, n) -> if List.memq p answering then acc + n else acc)
       0 (Engine.per_pmtd_space eng))
    (Engine.space loaded);
  Alcotest.(check (list string))
    (what ^ ": answering PMTDs round-trip")
    (List.map pmtd answering)
    (List.map pmtd (Engine.answering_pmtds loaded));
  Alcotest.(check int)
    (what ^ ": plans per answer round-trip")
    (Engine.plans_per_answer eng)
    (Engine.plans_per_answer loaded);
  Alcotest.(check bool)
    (what ^ ": loaded engine is a static replica")
    false
    (Engine.supports_maintenance loaded);
  (* observationally identical: same answers and same op counts *)
  let a = Engine.answer_batch eng reqs in
  let b = Engine.answer_batch loaded reqs in
  List.iteri
    (fun j ((ra, ca), (rb, cb)) ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "%s, request %d: same answer" what j)
        (sorted ra) (sorted rb);
      if ca <> cb then
        Alcotest.failf
          "%s, request %d: op counts differ (probes %d/%d tuples %d/%d \
           scans %d/%d)"
          what j ca.Cost.probes cb.Cost.probes ca.Cost.tuples cb.Cost.tuples
          ca.Cost.scans cb.Cost.scans)
    (List.combine a b);
  (match Engine.save loaded again with
  | Ok _ -> ()
  | Error _ -> Alcotest.failf "%s: re-save failed" what);
  if not (String.equal (read_file path) (read_file again)) then
    Alcotest.failf "%s: the replica re-saves to different bytes" what;
  (* a replica must reject further deltas rather than drift silently *)
  match Engine.insert loaded "R" [| 5; 5 |] with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: replica accepted a delta" what

let test_snapshot_after_deltas () =
  let _, _, eng =
    build_path
      ~r_rows:[ [| 1; 2 |]; [| 6; 7 |] ]
      ~s_rows:[ [| 2; 3 |]; [| 7; 8 |] ]
      ()
  in
  ignore (Engine.insert eng "R" [| 1; 7 |]);
  ignore (Engine.delete eng "S" [| 7; 8 |]);
  ignore (Engine.insert eng "S" [| 2; 9 |]);
  Alcotest.(check int) "epoch after deltas" 3 (Engine.epoch eng);
  check_snapshot "path" eng ~epoch:3 (List.map q_x [ 1; 6; 7 ]);
  (* the point-2reach fixture after a few deltas: its delegated plans
     read leaves whose indexes carry those writes in their overlays *)
  let edges, eng = point_fixture () in
  Alcotest.(check bool) "point fixture delegates" true
    (List.exists
       (fun s -> Twopp.plans s <> [])
       (Engine.structures eng));
  let present = Hashtbl.create 4096 in
  List.iter (fun e -> Hashtbl.replace present e ()) edges;
  let reversed =
    List.filter_map
      (fun (a, b) ->
        if a <> b && not (Hashtbl.mem present (b, a)) then Some (b, a)
        else None)
      edges
  in
  let deltas =
    List.concat
      (List.init 4 (fun i ->
           let u, v = List.nth reversed i and x, y = List.nth edges (7 * i) in
           [ ("R", [| u; v |], true); ("R", [| x; y |], false) ]))
  in
  let applied, _ = Engine.apply_deltas eng deltas in
  Alcotest.(check int) "every delta is effective" 8 applied;
  let access = Engine.access_schema eng in
  let reqs =
    List.map
      (Relation.singleton access)
      (Scenario.zipf_requests ~seed:7 ~n:400 ~requests:60 ~skew:1.5
         ~arity:(Schema.arity access))
  in
  check_snapshot "point fixture" eng ~epoch:8 reqs

let () =
  Alcotest.run "incremental"
    [
      ( "edge-cases",
        [
          Alcotest.test_case "redundant insert/delete are no-ops" `Quick
            test_redundant_insert;
          Alcotest.test_case "last-witness delete" `Quick
            test_last_witness_delete;
          Alcotest.test_case "the serving plan follows deltas" `Quick
            test_serving_follows_deltas;
          Alcotest.test_case "snapshot after deltas round-trips" `Quick
            test_snapshot_after_deltas;
          Alcotest.test_case "a malformed batch writes nothing" `Quick
            test_batch_checked_before_writes;
          Alcotest.test_case "self-joined deltas match the reference" `Quick
            test_self_join_deltas;
          Alcotest.test_case "a delta costs its neighbourhood" `Quick
            test_neighbourhood_bound;
          Alcotest.test_case "nested splits of one atom follow deltas" `Quick
            test_nested_splits;
        ] );
      ( "churn",
        [
          Alcotest.test_case
            (Printf.sprintf
               "%d random instances, interleaved deltas vs rebuild"
               n_instances)
            `Slow test_churn_differential;
        ] );
    ]
