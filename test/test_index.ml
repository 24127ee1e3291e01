(* Direct tests for the flat-bucket hash index: build/probe/semijoin/
   join, the O(1) [count] behavior the rework guarantees, and the live
   relations whose writes patch their indexes — a live index reads like
   a fresh build of its rows — with the delta kernels and the aggregate
   kernel checked against plain joins. *)

open Stt_relation

let schema = Schema.of_list
let rel vars tuples = Relation.of_list (schema vars) tuples
let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

(* the rows under [key], copied out of [probe_iter]'s backing array *)
let probe ~arity idx key =
  let out = ref [] in
  Index.probe_iter idx key (fun src base ->
      out := Array.to_list (Array.sub src base arity) :: !out);
  List.sort compare !out

let test_build_probe () =
  (* R(x0, x1, x2) indexed on x1: buckets group by the middle column *)
  let r =
    rel [ 0; 1; 2 ]
      [
        [| 1; 10; 100 |];
        [| 2; 10; 200 |];
        [| 3; 20; 300 |];
        [| 1; 10; 100 |];
        (* duplicate: relations deduplicate *)
      ]
  in
  let idx = Index.build r [ 1 ] in
  Alcotest.(check (list (list int)))
    "bucket of 10"
    [ [ 1; 10; 100 ]; [ 2; 10; 200 ] ]
    (probe ~arity:3 idx [| 10 |]);
  Alcotest.(check (list (list int)))
    "bucket of 20"
    [ [ 3; 20; 300 ] ]
    (probe ~arity:3 idx [| 20 |]);
  Alcotest.(check (list (list int)))
    "missing key" [] (probe ~arity:3 idx [| 99 |]);
  Alcotest.check Alcotest.int "count hit" 1 (Index.count idx [| 20 |]);
  Alcotest.check Alcotest.int "count miss" 0 (Index.count idx [| 21 |]);
  (* one probe per lookup, nothing per row *)
  let _, snap = Cost.scoped (fun () -> probe ~arity:3 idx [| 10 |]) in
  Alcotest.check Alcotest.int "probe_iter charges one probe" 1
    (Cost.total snap)

let test_count () =
  let r =
    rel [ 0; 1 ]
      (List.init 50 (fun i -> [| (if i < 47 then 7 else i); i |]))
  in
  let idx = Index.build r [ 0 ] in
  Alcotest.check Alcotest.int "heavy key degree" 47 (Index.count idx [| 7 |]);
  Alcotest.check Alcotest.int "light key degree" 1 (Index.count idx [| 48 |]);
  Alcotest.check Alcotest.int "absent key degree" 0 (Index.count idx [| 999 |]);
  (* counting probes are charged like any other probe *)
  let (), snap = Cost.scoped (fun () -> ignore (Index.count idx [| 7 |])) in
  Alcotest.check Alcotest.int "one probe per count" 1 snap.Cost.probes

let test_count_constant_time () =
  (* O(1) count: time many lookups against a tiny bucket and a huge one;
     a bucket-walking implementation would be ~25000x slower on the huge
     bucket, the stored-length one is within noise (generous 20x gate) *)
  let n = 50_000 in
  let tuples =
    List.init n (fun i -> [| (if i < 2 then 1 else 2); i |])
  in
  let idx = Index.build (rel [ 0; 1 ] tuples) [ 0 ] in
  Alcotest.check Alcotest.int "small bucket" 2 (Index.count idx [| 1 |]);
  Alcotest.check Alcotest.int "huge bucket" (n - 2) (Index.count idx [| 2 |]);
  let time key =
    let reps = 100_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Index.count idx key)
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (time [| 1 |]);
  (* warm up *)
  let small = time [| 1 |] and huge = time [| 2 |] in
  if huge > small *. 20.0 +. 0.005 then
    Alcotest.failf
      "count not O(1): %.4fs on a %d-tuple bucket vs %.4fs on a 2-tuple one"
      huge (n - 2) small

let test_semijoin () =
  let r = rel [ 0; 1 ] [ [| 1; 2 |]; [| 3; 4 |]; [| 5; 6 |] ] in
  let s = rel [ 1; 2 ] [ [| 2; 9 |]; [| 6; 9 |] ] in
  let idx = Index.build s [ 1 ] in
  Alcotest.(check (list (list int)))
    "semijoin keeps matching keys"
    [ [ 1; 2 ]; [ 5; 6 ] ]
    (sorted (Index.semijoin r idx));
  (* cost: one scan + one probe per probe-side tuple, nothing per stored
     tuple *)
  let (), snap = Cost.scoped (fun () -> ignore (Index.semijoin r idx)) in
  Alcotest.check Alcotest.int "semijoin scans" 3 snap.Cost.scans;
  Alcotest.check Alcotest.int "semijoin probes" 3 snap.Cost.probes

let test_join () =
  let r = rel [ 0; 1 ] [ [| 1; 2 |]; [| 3; 4 |] ] in
  let s = rel [ 1; 2 ] [ [| 2; 7 |]; [| 2; 8 |]; [| 4; 9 |]; [| 5; 0 |] ] in
  let idx = Index.build s [ 1 ] in
  let out = Index.join r idx in
  Alcotest.(check (list (list int)))
    "join extends with bucket rows"
    [ [ 1; 2; 7 ]; [ 1; 2; 8 ]; [ 3; 4; 9 ] ]
    (sorted out);
  Alcotest.(check (list int))
    "join schema starts with probe side" [ 0; 1; 2 ]
    (Schema.vars (Relation.schema out))

let test_multi_var_key () =
  (* composite key, key vars in non-schema order *)
  let r = rel [ 0; 1; 2 ] [ [| 1; 2; 3 |]; [| 1; 2; 4 |]; [| 9; 2; 3 |] ] in
  let idx = Index.build r [ 2; 0 ] in
  Alcotest.(check (list (list int)))
    "composite key (3, 1)"
    [ [ 1; 2; 3 ] ]
    (probe ~arity:3 idx [| 3; 1 |]);
  Alcotest.check Alcotest.int "composite count" 1 (Index.count idx [| 4; 1 |])

let test_empty_relation () =
  let idx = Index.build (rel [ 0; 1 ] []) [ 0 ] in
  Alcotest.(check (list (list int)))
    "empty probe" [] (probe ~arity:2 idx [| 1 |]);
  Alcotest.check Alcotest.int "empty count" 0 (Index.count idx [| 1 |])

let test_build_charges_nothing () =
  let r = rel [ 0; 1 ] (List.init 100 (fun i -> [| i; i |])) in
  let (), snap = Cost.scoped (fun () -> ignore (Index.build r [ 0 ])) in
  Alcotest.check Alcotest.int "building is preprocessing (free online)" 0
    (Cost.total snap)

(* ------------------------------------------------------------------ *)
(* a live index equals a fresh build                                    *)
(* ------------------------------------------------------------------ *)

(* [live] answers probe, count, semijoin and join exactly like [fresh],
   both over [vars] keyed on [key_vars], on every key of [rows], an
   absent key, and a probe side over the key variables plus a fresh
   one *)
let check_alike what fresh live ~vars ~key_vars ~rows =
  let arity = List.length vars in
  let pos = Schema.positions (schema vars) key_vars in
  let absent = Array.make (List.length key_vars) 777 in
  let keys =
    List.sort_uniq compare (absent :: List.map (Tuple.project pos) rows)
  in
  List.iter
    (fun k ->
      let what = what ^ ": key " ^ Tuple.to_string k in
      Alcotest.(check (list (list int)))
        (what ^ " probe") (probe ~arity fresh k) (probe ~arity live k);
      Alcotest.(check int) (what ^ " count") (Index.count fresh k)
        (Index.count live k))
    keys;
  let probe_side =
    rel (key_vars @ [ 9 ])
      (List.concat_map
         (fun k -> [ Array.append k [| 0 |]; Array.append k [| 1 |] ])
         keys)
  in
  Alcotest.(check (list (list int)))
    (what ^ ": semijoin")
    (sorted (Index.semijoin probe_side fresh))
    (sorted (Index.semijoin probe_side live));
  Alcotest.(check (list (list int)))
    (what ^ ": join")
    (sorted (Index.join probe_side fresh))
    (sorted (Index.join probe_side live))

let test_overlay_live () =
  (* writes through the live relation after its index exists stay in the
     index's overlay (far below the compaction threshold): the index
     reads like a fresh build of the rows — deleted flat rows skipped,
     a re-inserted one back from the overlay while its flat copy stays
     dead *)
  let rows = List.init 40 (fun i -> [| i mod 4; i |]) in
  let l = Live.of_relation (rel [ 0; 1 ] rows) in
  let idx = Live.index l [ 0 ] in
  let added = [ [| 1; 100 |]; [| 9; 101 |]; [| 2; 102 |] ] in
  let removed = [ [| 1; 1 |]; [| 2; 102 |]; [| 3; 3 |]; [| 0; 8 |] ] in
  List.iter (fun r -> ignore (Live.add l r)) added;
  List.iter
    (fun r ->
      Alcotest.(check bool) ("remove " ^ Tuple.to_string r) true
        (Live.remove l r))
    removed;
  Alcotest.(check bool) "re-insert a removed flat row" true
    (Live.add l [| 0; 8 |]);
  Alcotest.(check bool) "remove the re-inserted row" true
    (Live.remove l [| 0; 8 |]);
  Alcotest.(check bool) "re-insert it again" true (Live.add l [| 0; 8 |]);
  Alcotest.(check bool) "the same index is handed out" true
    (Live.index l [ 0 ] == idx);
  let removed = List.filter (fun r -> r <> [| 0; 8 |]) removed in
  let live = List.filter (fun r -> not (List.mem r removed)) (rows @ added) in
  Alcotest.(check (list (list int))) "the rows" (sorted (rel [ 0; 1 ] live))
    (sorted (Live.relation l));
  check_alike "live overlay"
    (Index.build (rel [ 0; 1 ] live) [ 0 ])
    idx ~vars:[ 0; 1 ] ~key_vars:[ 0 ] ~rows:(rows @ added)

(* ------------------------------------------------------------------ *)
(* live relations and the delta kernels                                 *)
(* ------------------------------------------------------------------ *)

(* the chain R(x0,x1) S(x2,x1) T(x2,x3) over a 6-value domain, so joins
   fan out; S lists its variables out of order *)
let chain_schemas = [ [ 0; 1 ]; [ 2; 1 ]; [ 2; 3 ] ]

let random_pairs st n =
  List.init n (fun _ -> [| Random.State.int st 6; Random.State.int st 6 |])

let join_all seed rels = List.fold_left Relation.natural_join seed rels

module Semiring = Stt_semiring.Semiring

(* the sum over the flat join of the product of each atom's annotation *)
let brute_fold k seed rels =
  let sr = Semiring.live k in
  let full = join_all seed rels in
  let weight r tup =
    match sr.default with
    | None -> sr.one
    | Some default ->
        Relation.annotation r ~default
          (Tuple.project
             (Schema.positions (Relation.schema full)
                (Schema.vars (Relation.schema r)))
             tup)
  in
  Relation.fold
    (fun tup acc ->
      sr.add acc
        (List.fold_left (fun p r -> sr.mul p (weight r tup)) sr.one rels))
    full sr.zero

let test_live_kernels () =
  let st = Random.State.make [| 20 |] in
  let weigh r =
    Relation.iter
      (fun tup -> Relation.annotate r tup (Random.State.int st 9))
      r;
    r
  in
  for trial = 1 to 40 do
    let plain =
      List.map (fun vars -> weigh (rel vars (random_pairs st 10))) chain_schemas
    in
    let live = List.map (fun r -> Live.of_relation (Relation.copy r)) plain in
    (* U(x4) shares no variable with anything *)
    let u =
      Live.of_relation
        (weigh (rel [ 4 ] (List.init 3 (fun _ -> [| Random.State.int st 6 |]))))
    in
    let check round =
      let what = Printf.sprintf "trial %d, round %d" trial round in
      let plain = List.map Live.relation live in
      let r, s, t =
        match plain with [ r; s; t ] -> (r, s, t) | _ -> assert false
      in
      (* the sum-product from each pinned tuple of S and one absent
         tuple: S is fully bound from the start, U joins as a product *)
      List.iter
        (fun tup ->
          let seed = Relation.singleton (Relation.schema s) tup in
          List.iter
            (fun k ->
              Alcotest.(check int)
                (Printf.sprintf "%s: agg_from %s %s" what (Semiring.name k)
                   (Tuple.to_string tup))
                (brute_fold k seed [ r; t; s; Live.relation u ])
                (Live.agg_from (Semiring.live k) seed
                   [ List.nth live 0; u; List.nth live 2; List.nth live 1 ]))
            [ Semiring.Count; Semiring.Min ])
        ([| 7; 7 |] :: Relation.to_list s);
      (* {t}⋈S from each pinned tuple of S and one absent tuple *)
      List.iter
        (fun tup ->
          let seed = Relation.singleton (Relation.schema s) tup in
          let keep = [ 3; 0 ] in
          let expected =
            sorted (Relation.project (join_all seed [ r; t ]) keep)
          in
          let got =
            Live.join_from seed [ List.nth live 0; List.nth live 2 ] ~keep
          in
          Alcotest.(check (list int))
            (what ^ ": join_from schema") keep
            (Schema.vars (Relation.schema got));
          Alcotest.(check (list (list int)))
            (what ^ ": join_from " ^ Tuple.to_string tup)
            expected (sorted got))
        ([| 7; 7 |] :: Relation.to_list s);
      (* a witness for every (x0, x3) pair, and one pinned at S *)
      let full = join_all r [ s; t ] in
      for a = 0 to 5 do
        for b = 0 to 5 do
          let expected =
            Relation.fold
              (fun tup acc ->
                acc
                || tup.(Schema.position (Relation.schema full) 0) = a
                   && tup.(Schema.position (Relation.schema full) 3) = b)
              full false
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: exists x0=%d x3=%d" what a b)
            expected
            (Live.exists [ (0, a); (3, b) ] live);
          let pinned = [ (2, a); (1, b) ] in
          Alcotest.(check bool)
            (Printf.sprintf "%s: exists x2=%d x1=%d" what a b)
            (not
               (Relation.is_empty
                  (join_all
                     (Relation.singleton (schema [ 2; 1 ]) [| a; b |])
                     [ r; t ])))
            (Live.exists pinned [ List.nth live 0; List.nth live 2 ])
        done
      done
    in
    check 0;
    (* writes after the indexes exist must patch them *)
    for round = 1 to 3 do
      List.iter
        (fun l ->
          List.iter (fun tup -> ignore (Live.add l tup)) (random_pairs st 3);
          List.iter
            (fun tup -> ignore (Live.remove l tup))
            (List.filteri
               (fun i _ -> i mod 3 = 0)
               (Relation.to_list (Live.relation l))))
        live;
      check round
    done
  done

let test_live_writes () =
  let l = Live.of_relation (rel [ 0; 1 ] [ [| 1; 2 |] ]) in
  Alcotest.(check bool) "exists builds an index" true
    (Live.exists [ (0, 1) ] [ l ]);
  Alcotest.(check bool) "adding a present tuple is a no-op" false
    (Live.add l [| 1; 2 |]);
  Alcotest.(check bool) "add" true (Live.add l [| 1; 3 |]);
  Alcotest.(check bool) "remove" true (Live.remove l [| 1; 2 |]);
  Alcotest.(check bool) "removing an absent tuple is a no-op" false
    (Live.remove l [| 1; 2 |]);
  Alcotest.(check bool) "the index sees the add" true
    (Live.exists [ (0, 1); (1, 3) ] [ l ]);
  Alcotest.(check bool) "the index sees the remove" false
    (Live.exists [ (0, 1); (1, 2) ] [ l ]);
  Alcotest.(check bool) "a variable bound twice disagrees" false
    (Live.exists [ (0, 1); (0, 2) ] [ l ]);
  let seed = rel [ 0 ] [ [| 1 |] ] in
  Alcotest.(check (list (list int))) "join_from within its limit"
    [ [ 3 ] ]
    (sorted (Live.join_from ~limit:1 seed [ l ] ~keep:[ 1 ]));
  ignore (Live.add l [| 1; 4 |]);
  (match Live.join_from ~limit:1 seed [ l ] ~keep:[ 1 ] with
  | _ -> Alcotest.fail "join_from passed its limit"
  | exception Relation.Too_big -> ());
  (* enough writes to compact the index's overlay, twice *)
  for i = 0 to 299 do
    ignore (Live.add l [| i mod 7; i |])
  done;
  for i = 0 to 299 do
    if i mod 4 <> 0 then ignore (Live.remove l [| i mod 7; i |])
  done;
  for k = 0 to 6 do
    Alcotest.(check (list (list int)))
      (Printf.sprintf "bucket %d after compaction" k)
      (List.sort compare
         (List.filter_map
            (fun t -> if t.(0) = k then Some (Array.to_list t) else None)
            (Relation.to_list (Live.relation l))))
      (sorted (Live.join_from (rel [ 0 ] [ [| k |] ]) [ l ] ~keep:[ 0; 1 ]))
  done

let () =
  Alcotest.run "index"
    [
      ( "index",
        [
          Alcotest.test_case "build and probe" `Quick test_build_probe;
          Alcotest.test_case "count" `Quick test_count;
          Alcotest.test_case "count is O(1)" `Slow test_count_constant_time;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "multi-variable key" `Quick test_multi_var_key;
          Alcotest.test_case "empty relation" `Quick test_empty_relation;
          Alcotest.test_case "build charges nothing" `Quick
            test_build_charges_nothing;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "overlay rows are written live" `Quick
            test_overlay_live;
        ] );
      ( "live",
        [
          Alcotest.test_case "writes patch the indexes" `Quick test_live_writes;
          Alcotest.test_case "join_from and exists match plain joins" `Quick
            test_live_kernels;
        ] );
    ]
