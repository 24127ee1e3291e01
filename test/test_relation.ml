(* Relational engine: operator unit tests, cost accounting, and
   randomized cross-checks of join/semijoin against nested loops. *)

open Stt_relation

let rel_of schema tuples =
  Relation.of_list (Schema.of_list schema) (List.map Array.of_list tuples)

let sorted_tuples r = List.sort compare (List.map Array.to_list (Relation.to_list r))

let check_tuples msg expected r =
  Alcotest.check
    Alcotest.(list (list int))
    msg
    (List.sort compare expected)
    (sorted_tuples r)

let test_schema () =
  let s = Schema.of_list [ 3; 1; 2 ] in
  Alcotest.check Alcotest.int "arity" 3 (Schema.arity s);
  Alcotest.check Alcotest.int "position" 2 (Schema.position s 2);
  Alcotest.check Alcotest.bool "mem" true (Schema.mem 1 s);
  Alcotest.check Alcotest.(list int) "inter order" [ 1; 2 ]
    (Schema.inter (Schema.of_list [ 1; 2 ]) s);
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Schema.of_list: duplicate variable") (fun () ->
      ignore (Schema.of_list [ 1; 1 ]))

let test_dedup () =
  let r = rel_of [ 0; 1 ] [ [ 1; 2 ]; [ 1; 2 ]; [ 3; 4 ] ] in
  Alcotest.check Alcotest.int "dedup" 2 (Relation.cardinal r)

let test_project () =
  let r = rel_of [ 0; 1; 2 ] [ [ 1; 2; 3 ]; [ 1; 5; 3 ]; [ 2; 2; 3 ] ] in
  check_tuples "project 0 2" [ [ 1; 3 ]; [ 2; 3 ] ] (Relation.project r [ 0; 2 ]);
  check_tuples "project reorder" [ [ 3; 1 ]; [ 3; 2 ] ] (Relation.project r [ 2; 0 ]);
  check_tuples "project empty schema" [ [] ] (Relation.project r []);
  (* onto the whole schema in its order: the same tuples and charges as
     any projection, one scan and one tuple each, in a relation of its own *)
  let id, c = Cost.measure (fun () -> Relation.project r [ 0; 1; 2 ]) in
  check_tuples "project identity" (List.map Array.to_list (Relation.to_list r)) id;
  Alcotest.check Alcotest.(pair int int) "identity charges" (3, 3)
    (c.Cost.scans, c.Cost.tuples);
  Relation.add id [| 9; 9; 9 |];
  Alcotest.check Alcotest.int "identity is a copy" 3 (Relation.cardinal r)

let test_copy () =
  let r = rel_of [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  Relation.annotate r [| 1; 2 |] 7;
  let c, cost = Cost.measure (fun () -> Relation.copy r) in
  Alcotest.check Alcotest.int "one tuple charged per tuple" 2 cost.Cost.tuples;
  Alcotest.check Alcotest.int "annotation carried" 7
    (Relation.annotation c ~default:1 [| 1; 2 |]);
  (* writes to the copy leave the source as it was *)
  Relation.annotate c [| 1; 2 |] 5;
  Relation.add c [| 5; 6 |];
  ignore (Relation.remove c [| 3; 4 |]);
  check_tuples "source rows" [ [ 1; 2 ]; [ 3; 4 ] ] r;
  check_tuples "copy rows" [ [ 1; 2 ]; [ 5; 6 ] ] c;
  Alcotest.check Alcotest.int "source annotation" 7
    (Relation.annotation r ~default:1 [| 1; 2 |])

let test_join () =
  let a = rel_of [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = rel_of [ 1; 2 ] [ [ 2; 7 ]; [ 2; 8 ]; [ 5; 9 ] ] in
  check_tuples "natural join" [ [ 1; 2; 7 ]; [ 1; 2; 8 ] ] (Relation.natural_join a b);
  (* join with no common vars = product *)
  let c = rel_of [ 5 ] [ [ 10 ]; [ 11 ] ] in
  Alcotest.check Alcotest.int "cross size" 4
    (Relation.cardinal (Relation.natural_join a c))

let test_semijoin () =
  let a = rel_of [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  let b = rel_of [ 1; 2 ] [ [ 2; 7 ]; [ 6; 8 ] ] in
  check_tuples "semijoin" [ [ 1; 2 ]; [ 5; 6 ] ] (Relation.semijoin a b)

let test_union () =
  let a = rel_of [ 0; 1 ] [ [ 1; 2 ] ] in
  let b = rel_of [ 1; 0 ] [ [ 2; 1 ]; [ 4; 3 ] ] in
  (* schemas are reordered on union *)
  check_tuples "union reorders" [ [ 1; 2 ]; [ 3; 4 ] ] (Relation.union a b)

let test_degrees () =
  let r = rel_of [ 0; 1 ] [ [ 1; 2 ]; [ 1; 3 ]; [ 1; 4 ]; [ 2; 5 ] ] in
  Alcotest.check Alcotest.int "max degree" 3 (Relation.max_degree r [ 0 ]);
  Alcotest.check Alcotest.int "max degree on the other column" 1
    (Relation.max_degree r [ 1 ]);
  Alcotest.check Alcotest.int "empty" 0
    (Relation.max_degree (rel_of [ 0; 1 ] []) [ 0 ])

let test_degrees_wide_tuples () =
  (* regression: the polymorphic hash samples only a prefix of long int
     arrays, so wide keys differing only in their tail used to collapse
     into degenerate buckets; the degree table keys with the full-width
     {!Tuple.hash}.  40-column keys, distinct only in the last column. *)
  let width = 40 in
  let vars = List.init width Fun.id in
  let groups = 32 and per_group = 3 in
  let tuples =
    List.concat
      (List.init groups (fun g ->
           List.init per_group (fun j ->
               List.init width (fun c ->
                   if c = width - 2 then g
                   else if c = width - 1 then j
                   else 7))))
  in
  let r = rel_of vars tuples in
  Alcotest.check Alcotest.int "all tuples kept" (groups * per_group)
    (Relation.cardinal r);
  (* key on everything except the final column: per_group tuples a key *)
  let key = List.init (width - 1) Fun.id in
  Alcotest.check Alcotest.int "wide max degree" per_group
    (Relation.max_degree r key);
  (* on everything: each key its own tuple *)
  Alcotest.check Alcotest.int "full-width keys are distinct" 1
    (Relation.max_degree r vars)

let test_index () =
  let r = rel_of [ 0; 1 ] [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ] in
  let idx = Index.build r [ 0 ] in
  let bucket = ref 0 in
  Index.probe_iter idx [| 1 |] (fun _ _ -> incr bucket);
  Alcotest.check Alcotest.int "bucket size" 2 !bucket;
  Alcotest.check Alcotest.int "count hit" 1 (Index.count idx [| 2 |]);
  Alcotest.check Alcotest.int "count miss" 0 (Index.count idx [| 9 |]);
  Alcotest.check Alcotest.int "count" 2 (Index.count idx [| 1 |]);
  (* index-side join and semijoin *)
  let probe = rel_of [ 0; 2 ] [ [ 1; 7 ]; [ 9; 8 ] ] in
  check_tuples "index semijoin" [ [ 1; 7 ] ] (Index.semijoin probe idx);
  check_tuples "index join" [ [ 1; 7; 2 ]; [ 1; 7; 3 ] ] (Index.join probe idx)

let test_cost_counting () =
  Cost.reset ();
  let r = rel_of [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ] in
  ignore r;
  let snap = Cost.snapshot () in
  Alcotest.check Alcotest.bool "tuples charged" true (snap.Cost.tuples >= 2);
  (* counting off *)
  Cost.reset ();
  Cost.with_counting false (fun () ->
      ignore (rel_of [ 0; 1 ] [ [ 1; 2 ]; [ 3; 4 ] ]));
  Alcotest.check Alcotest.int "no charges when off" 0
    (Cost.total (Cost.snapshot ()));
  (* index probes are charged *)
  let idx = Index.build r [ 0 ] in
  Cost.reset ();
  ignore (Index.count idx [| 1 |]);
  Alcotest.check Alcotest.int "one probe" 1 (Cost.snapshot ()).Cost.probes

let test_measure () =
  let (), snap = Cost.measure (fun () -> Cost.charge_probe ()) in
  Alcotest.check Alcotest.int "measure captures" 1 snap.Cost.probes

exception Boom

let test_measure_reentrant () =
  (* a nested measure must not clobber the outer measurement: measure is
     snapshot-diff based, not reset based *)
  let (), outer =
    Cost.measure (fun () ->
        Cost.charge_probe ();
        let (), inner = Cost.measure (fun () -> Cost.charge_scan ()) in
        Alcotest.check Alcotest.int "inner scans" 1 inner.Cost.scans;
        Alcotest.check Alcotest.int "inner probes" 0 inner.Cost.probes;
        Cost.charge_tuple ())
  in
  Alcotest.check Alcotest.int "outer probes" 1 outer.Cost.probes;
  Alcotest.check Alcotest.int "outer tuples" 1 outer.Cost.tuples;
  (* the inner work happened while outer was measuring: it is included *)
  Alcotest.check Alcotest.int "outer scans" 1 outer.Cost.scans

let test_measure_no_leak_on_exception () =
  (* regression: a measure nested inside [with_counting false] must not
     leak a disabled (or force-enabled) counting state when its thunk
     raises *)
  Cost.set_counting true;
  (try
     Cost.with_counting false (fun () ->
         ignore (Cost.measure (fun () -> raise Boom));
         ())
   with Boom -> ());
  Alcotest.check Alcotest.bool "counting restored after exception" true
    (Cost.counting ());
  (* and the flag inside the outer scope is still respected afterwards *)
  Cost.reset ();
  (try
     Cost.with_counting false (fun () ->
         (try ignore (Cost.measure (fun () -> raise Boom)) with Boom -> ());
         (* back in the disabled scope: charges must be ignored *)
         Cost.charge_probe ())
   with Boom -> ());
  Alcotest.check Alcotest.int "disabled scope intact after nested raise" 0
    (Cost.total (Cost.snapshot ()))

let test_scoped () =
  (* scoped respects the current counting mode and never resets *)
  Cost.reset ();
  Cost.charge_probe ();
  let (), snap = Cost.scoped (fun () -> Cost.charge_scan ()) in
  Alcotest.check Alcotest.int "scoped scans" 1 snap.Cost.scans;
  Alcotest.check Alcotest.int "scoped excludes prior charges" 0 snap.Cost.probes;
  Alcotest.check Alcotest.int "global counters kept" 1
    (Cost.snapshot ()).Cost.probes;
  let (), off =
    Cost.with_counting false (fun () ->
        Cost.scoped (fun () -> Cost.charge_tuple ()))
  in
  Alcotest.check Alcotest.int "scoped under disabled counting" 0
    (Cost.total off)

(* randomized cross-check against nested-loop reference *)
let pairs_gen =
  QCheck2.Gen.(list_size (int_range 0 30) (pair (int_range 0 5) (int_range 0 5)))

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

let ref_join a b =
  (* schemas [0;1] and [1;2] *)
  List.concat_map
    (fun (x, y) ->
      List.filter_map (fun (y', z) -> if y = y' then Some [ x; y; z ] else None) b)
    a
  |> List.sort_uniq compare

let qcheck_cases =
  [
    prop "join matches nested loops" (QCheck2.Gen.pair pairs_gen pairs_gen)
      (fun (a, b) ->
        let ra = rel_of [ 0; 1 ] (List.map (fun (x, y) -> [ x; y ]) a) in
        let rb = rel_of [ 1; 2 ] (List.map (fun (x, y) -> [ x; y ]) b) in
        sorted_tuples (Relation.natural_join ra rb) = ref_join a b);
    prop "semijoin = projection of join" (QCheck2.Gen.pair pairs_gen pairs_gen)
      (fun (a, b) ->
        let ra = rel_of [ 0; 1 ] (List.map (fun (x, y) -> [ x; y ]) a) in
        let rb = rel_of [ 1; 2 ] (List.map (fun (x, y) -> [ x; y ]) b) in
        sorted_tuples (Relation.semijoin ra rb)
        = sorted_tuples (Relation.project (Relation.natural_join ra rb) [ 0; 1 ]));
    prop "index join = natural join" (QCheck2.Gen.pair pairs_gen pairs_gen)
      (fun (a, b) ->
        let ra = rel_of [ 0; 1 ] (List.map (fun (x, y) -> [ x; y ]) a) in
        let rb = rel_of [ 1; 2 ] (List.map (fun (x, y) -> [ x; y ]) b) in
        let idx = Index.build rb [ 1 ] in
        sorted_tuples (Index.join ra idx)
        = sorted_tuples (Relation.natural_join ra rb));
  ]

let () =
  Alcotest.run "relation"
    [
      ( "unit",
        [
          Alcotest.test_case "schema" `Quick test_schema;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "semijoin" `Quick test_semijoin;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "degrees on wide tuples" `Quick
            test_degrees_wide_tuples;
          Alcotest.test_case "index" `Quick test_index;
          Alcotest.test_case "cost counting" `Quick test_cost_counting;
          Alcotest.test_case "measure" `Quick test_measure;
          Alcotest.test_case "measure re-entrant" `Quick test_measure_reentrant;
          Alcotest.test_case "measure no leak on exception" `Quick
            test_measure_no_leak_on_exception;
          Alcotest.test_case "scoped" `Quick test_scoped;
        ] );
      ("properties", qcheck_cases);
    ]
