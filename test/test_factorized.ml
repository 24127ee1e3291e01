(* Factorized d-representations: structural round trips, op parity with
   flat indexes, the constant-delay enumeration contract, the codec's
   corruption rejection, and the end-to-end engine paths (admission,
   snapshot section, cache values). *)

open Stt_relation
open Stt_hypergraph
open Stt_core
open Stt_workload
module Frep = Stt_factorized.Frep
module Fconfig = Stt_factorized.Config
module Codec = Stt_store.Codec

let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

let with_mode m f =
  let saved = Fconfig.mode () in
  Fconfig.set_mode m;
  Fun.protect ~finally:(fun () -> Fconfig.set_mode saved) f

(* a cross product shares its suffix maximally: |A| x |B| rows in
   |A| + |B| singletons *)
let product_rel na nb =
  Relation.of_list (Schema.of_list [ 0; 1 ])
    (List.concat_map
       (fun a -> List.init nb (fun b -> [| a; 100 + b |]))
       (List.init na Fun.id))

let random_rel rng ~arity ~rows ~dom =
  (* cap at the domain's capacity so drawing distinct rows terminates *)
  let cap = int_of_float (Float.pow (float_of_int dom) (float_of_int arity)) in
  let rows = min rows (cap / 2) in
  let seen = Hashtbl.create (max 1 rows) in
  let rec draw n acc =
    if n = 0 then acc
    else
      let t = Array.init arity (fun _ -> Rng.int rng dom) in
      if Hashtbl.mem seen t then draw n acc
      else begin
        Hashtbl.add seen t ();
        draw (n - 1) (t :: acc)
      end
  in
  Relation.of_list (Schema.of_list (List.init arity Fun.id)) (draw rows [])

(* ------------------------------------------------------------------ *)
(* structure                                                            *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let rng = Rng.create 42 in
  for _ = 1 to 50 do
    let arity = 1 + Rng.int rng 4 in
    let rel = random_rel rng ~arity ~rows:(Rng.int rng 60) ~dom:6 in
    let f = Frep.of_relation rel in
    Alcotest.(check int) "rows" (Relation.cardinal rel) (Frep.rows f);
    let back = Relation.project (Frep.to_relation f) (Schema.vars (Relation.schema rel)) in
    Alcotest.(check (list (list int))) "tuples" (sorted rel) (sorted back)
  done

let test_sharing () =
  let rel = product_rel 30 40 in
  let f = Frep.of_relation rel in
  Alcotest.(check int) "rows" 1200 (Frep.rows f);
  Alcotest.(check bool) "cross product compresses to |A| + |B|" true
    (Frep.size f = 70);
  (* a relation of distinct unrelated rows cannot beat flat by much *)
  let rng = Rng.create 7 in
  let sparse = random_rel rng ~arity:2 ~rows:50 ~dom:1000 in
  let g = Frep.of_relation sparse in
  Alcotest.(check bool) "no structure, no miracle" true
    (Frep.size g >= Relation.cardinal sparse)

let test_empty_and_edges () =
  let empty = Relation.create (Schema.of_list [ 0; 1 ]) in
  let f = Frep.of_relation empty in
  Alcotest.(check int) "empty rows" 0 (Frep.rows f);
  Alcotest.(check int) "empty size" 0 (Frep.size f);
  let n = ref 0 in
  Frep.enum_iter f (fun _ -> incr n);
  Alcotest.(check int) "empty enumerates nothing" 0 !n;
  let one = Relation.of_list (Schema.of_list [ 3 ]) [ [| 9 |] ] in
  let g = Frep.of_relation ~prefix:[ 3 ] one in
  Alcotest.(check int) "singleton size" 1 (Frep.size g);
  Alcotest.(check bool) "prefix probe hits" true (Frep.probe_mem g [| 9 |]);
  Alcotest.(check bool) "prefix probe misses" false (Frep.probe_mem g [| 8 |]);
  (match Frep.of_relation ~prefix:[ 7 ] one with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign prefix var accepted");
  match Frep.of_relation ~prefix:[ 3; 3 ] one with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate prefix var accepted"

(* ------------------------------------------------------------------ *)
(* cost contracts                                                       *)
(* ------------------------------------------------------------------ *)

let test_enum_delay () =
  let rel = product_rel 15 20 in
  let f = Cost.with_counting false (fun () -> Frep.of_relation rel) in
  let n = ref 0 in
  let (), c = Cost.measure (fun () -> Frep.enum_iter f (fun _ -> incr n)) in
  Alcotest.(check int) "every row" 300 !n;
  Alcotest.(check int) "one probe" 1 c.Cost.probes;
  Alcotest.(check int) "one tuple per row" 300 c.Cost.tuples;
  Alcotest.(check int) "no scans" 0 c.Cost.scans

let test_op_parity () =
  let rng = Rng.create 99 in
  for _ = 1 to 20 do
    let right = random_rel rng ~arity:3 ~rows:(5 + Rng.int rng 40) ~dom:5 in
    let left =
      Relation.of_list (Schema.of_list [ 0; 1 ])
        (List.map (fun _ -> [| Rng.int rng 5; Rng.int rng 5 |]) (List.init 15 Fun.id))
    in
    let key = [ 0; 1 ] in
    let idx = Cost.with_counting false (fun () -> Index.build right key) in
    let f = Cost.with_counting false (fun () -> Frep.of_relation ~prefix:key right) in
    let sj_flat, c_flat = Cost.measure (fun () -> Index.semijoin left idx) in
    let sj_fact, c_fact = Cost.measure (fun () -> Frep.semijoin left f) in
    Alcotest.(check (list (list int))) "semijoin rows" (sorted sj_flat) (sorted sj_fact);
    Alcotest.(check bool) "semijoin cost parity" true (c_flat = c_fact);
    let j_flat, jc_flat = Cost.measure (fun () -> Index.join left idx) in
    let j_fact, jc_fact = Cost.measure (fun () -> Frep.join left f) in
    Alcotest.(check (list (list int)))
      "join rows"
      (sorted (Relation.project j_flat (Schema.vars (Relation.schema j_fact))))
      (sorted j_fact);
    Alcotest.(check bool) "join cost parity" true (jc_flat = jc_fact)
  done

let test_probe_iter () =
  let rel = random_rel (Rng.create 5) ~arity:2 ~rows:40 ~dom:4 in
  let f = Cost.with_counting false (fun () -> Frep.of_relation ~prefix:[ 0 ] rel) in
  for k = 0 to 4 do
    let got = ref [] in
    let (), c =
      Cost.measure (fun () ->
          Frep.probe_iter f [| k |] (fun t -> got := Array.copy t :: !got))
    in
    let expected =
      List.filter (fun t -> t.(0) = k) (Relation.to_list rel)
    in
    Alcotest.(check int) "probe row count" (List.length expected) (List.length !got);
    Alcotest.(check int) "one probe, nothing per row" 1 c.Cost.probes;
    Alcotest.(check int) "no tuples charged" 0 c.Cost.tuples
  done

(* ------------------------------------------------------------------ *)
(* codec                                                                *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let rng = Rng.create 123 in
  for _ = 1 to 30 do
    let arity = 1 + Rng.int rng 3 in
    let rel = random_rel rng ~arity ~rows:(Rng.int rng 50) ~dom:5 in
    let f = Frep.of_relation ~prefix:[ 0 ] rel in
    let g = Frep.decode (Frep.encode f) in
    Alcotest.(check int) "rows survive" (Frep.rows f) (Frep.rows g);
    Alcotest.(check int) "size survives" (Frep.size f) (Frep.size g);
    Alcotest.(check (list (list int)))
      "tuples survive"
      (sorted (Frep.to_relation f))
      (sorted (Frep.to_relation g))
  done

(* Every single-byte flip must either raise [Codec.Corrupt] or still
   decode to a structurally sound value (rows/size re-derived and
   consistent) — never crash, never inflate silently. *)
let test_codec_flip_sweep () =
  let rel = product_rel 6 7 in
  let blob = Frep.encode (Frep.of_relation rel) in
  for i = 0 to String.length blob - 1 do
    let b = Bytes.of_string blob in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
    match Frep.decode (Bytes.to_string b) with
    | exception Codec.Corrupt _ -> ()
    | g ->
        (* decoded: must still be internally consistent *)
        Alcotest.(check int)
          "re-derived rows match enumeration" (Frep.rows g)
          (Relation.cardinal (Frep.to_relation g))
  done

(* ------------------------------------------------------------------ *)
(* config gate                                                          *)
(* ------------------------------------------------------------------ *)

let test_config_modes () =
  with_mode Fconfig.Off (fun () ->
      Alcotest.(check bool) "off never eligible" false
        (Fconfig.eligible ~rows:100 ~size:1));
  with_mode Fconfig.Forced (fun () ->
      Alcotest.(check bool) "forced always eligible" true
        (Fconfig.eligible ~rows:1 ~size:100);
      Alcotest.(check bool) "forced leaves an empty view flat" false
        (Fconfig.eligible ~rows:0 ~size:0));
  with_mode Fconfig.Auto (fun () ->
      Alcotest.(check bool) "auto leaves an empty view flat" false
        (Fconfig.eligible ~rows:0 ~size:0);
      Alcotest.(check bool) "auto takes 1.25x" true
        (Fconfig.eligible ~rows:5 ~size:4);
      Alcotest.(check bool) "auto rejects below 1.25x" false
        (Fconfig.eligible ~rows:6 ~size:5);
      Alcotest.(check int) "effective size when eligible" 4
        (Fconfig.effective_size ~rows:5 ~size:4);
      Alcotest.(check int) "flat size when not" 6
        (Fconfig.effective_size ~rows:6 ~size:5))

(* ------------------------------------------------------------------ *)
(* cache values                                                         *)
(* ------------------------------------------------------------------ *)

let test_cache_factorized_values () =
  let module Cache = Stt_cache.Cache in
  let rel = product_rel 20 20 in
  with_mode Fconfig.Forced (fun () ->
      let c = Cache.create ~stripes:1 ~budget:1_000 () in
      Cache.add c ~key:"k" ~key_tuples:1 rel;
      let s = Cache.stats c in
      Alcotest.(check int) "entry admitted" 1 s.Cache.entries;
      Alcotest.(check int) "held as d-rep" 1 s.Cache.factorized;
      Alcotest.(check bool) "charged compressed (40 + key), not 400" true
        (s.Cache.used < 100);
      match Cache.find c "k" with
      | None -> Alcotest.fail "cached entry not found"
      | Some got ->
          Alcotest.(check (list (list int))) "decoded identically"
            (sorted rel) (sorted got));
  with_mode Fconfig.Off (fun () ->
      let c = Cache.create ~stripes:1 ~budget:1_000 () in
      Cache.add c ~key:"k" ~key_tuples:1 rel;
      let s = Cache.stats c in
      Alcotest.(check int) "flat under Off" 0 s.Cache.factorized;
      Alcotest.(check int) "charged flat" 401 s.Cache.used)

(* ------------------------------------------------------------------ *)
(* engine: admission, accounting, snapshot section                      *)
(* ------------------------------------------------------------------ *)

let hub_engine mode ~budget =
  let edges = Graphs.zipf_both ~seed:131 ~vertices:300 ~edges:6_000 ~s:1.3 in
  let db = Db.create () in
  Db.add_pairs db "R" edges;
  with_mode mode (fun () ->
      Engine.build_auto ~max_pmtds:128 (Cq.Library.k_path 3) ~db ~budget)

let hub_requests idx n =
  let rng = Rng.create 17 in
  let schema = Engine.access_schema idx in
  let arity = Schema.arity schema in
  Relation.of_list schema
    (List.init n (fun _ -> Array.init arity (fun _ -> Rng.int rng 300)))

let test_engine_amplification () =
  let budget = 800 in
  let flat = hub_engine Fconfig.Off ~budget in
  let fact = hub_engine Fconfig.Auto ~budget in
  Alcotest.(check bool) "factorized build stores more rows" true
    (Engine.materialized_rows fact > Engine.materialized_rows flat);
  Alcotest.(check bool) "in fewer stored singletons" true
    (Engine.space fact < Engine.materialized_rows fact);
  Alcotest.(check bool) "some views factorized" true
    (Engine.factorized_views fact > 0);
  let q_a = hub_requests fact 60 in
  Alcotest.(check (list (list int)))
    "identical answers"
    (sorted (Engine.answer flat ~q_a))
    (sorted (Engine.answer fact ~q_a))

let test_snapshot_factorized_section () =
  let fact = hub_engine Fconfig.Auto ~budget:800 in
  Alcotest.(check bool) "fixture has factorized views" true
    (Engine.factorized_views fact > 0);
  let path = Filename.temp_file "stt_factorized_test" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Engine.save fact path with
  | Error e -> Alcotest.failf "save: %s" (Stt_store.Store.error_to_string e)
  | Ok _ -> ());
  match Engine.load path with
  | Error e -> Alcotest.failf "load: %s" (Stt_store.Store.error_to_string e)
  | Ok loaded ->
      Alcotest.(check int) "compressed space survives" (Engine.space fact)
        (Engine.space loaded);
      Alcotest.(check int) "factorized views survive"
        (Engine.factorized_views fact)
        (Engine.factorized_views loaded);
      let q_a = hub_requests fact 60 in
      Alcotest.(check (list (list int)))
        "loaded engine answers identically"
        (sorted (Engine.answer fact ~q_a))
        (sorted (Engine.answer loaded ~q_a))

let () =
  Alcotest.run "factorized"
    [
      ( "structure",
        [
          Alcotest.test_case "factorize/materialize round trip" `Quick
            test_roundtrip;
          Alcotest.test_case "suffix sharing compresses" `Quick test_sharing;
          Alcotest.test_case "empty, singleton, bad prefixes" `Quick
            test_empty_and_edges;
        ] );
      ( "cost",
        [
          Alcotest.test_case "constant-delay enumeration" `Quick
            test_enum_delay;
          Alcotest.test_case "semijoin/join parity with Index" `Quick
            test_op_parity;
          Alcotest.test_case "probe_iter charges like Index" `Quick
            test_probe_iter;
        ] );
      ( "codec",
        [
          Alcotest.test_case "encode/decode round trip" `Quick
            test_codec_roundtrip;
          Alcotest.test_case "single-byte flips never crash" `Quick
            test_codec_flip_sweep;
        ] );
      ( "config",
        [ Alcotest.test_case "mode gates" `Quick test_config_modes ] );
      ( "cache",
        [
          Alcotest.test_case "factorized cache values" `Quick
            test_cache_factorized_values;
        ] );
      ( "engine",
        [
          Alcotest.test_case "amplified admission, identical answers" `Slow
            test_engine_amplification;
          Alcotest.test_case "snapshot factorized section round trip" `Slow
            test_snapshot_factorized_section;
        ] );
    ]
