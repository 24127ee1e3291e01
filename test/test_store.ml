(* The snapshot store, bottom to top.

   Codec and CRC primitives round-trip bit-exactly; the container
   rejects every kind of damaged file with the right typed error (a
   single flipped byte anywhere in a snapshot must surface as an
   [Error], never a crash or a silently wrong engine); and — the
   acceptance property — an engine loaded from a snapshot is
   observationally identical to the freshly built one: same space, same
   answers, and the same online operation counts, checked over
   randomized instances from the differential harness. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
module Crc32 = Stt_store.Crc32
module Codec = Stt_store.Codec
module Store = Stt_store.Store

(* ------------------------------------------------------------------ *)
(* codec primitives                                                     *)
(* ------------------------------------------------------------------ *)

let roundtrip_ints () =
  let e = Codec.encoder () in
  let uints = [ 0; 1; 127; 128; 16384; max_int ] in
  (* write_int's zigzag covers [-2^61, 2^61 - 1] *)
  let ints = [ 0; 1; -1; 31; -32; 123456; -123456; (1 lsl 61) - 1; -(1 lsl 61) ] in
  List.iter (Codec.write_uint e) uints;
  List.iter (Codec.write_int e) ints;
  Codec.write_bool e true;
  Codec.write_string e "snapshot";
  let d = Codec.decoder (Codec.contents e) in
  List.iter
    (fun v -> Alcotest.(check int) "uint" v (Codec.read_uint d))
    uints;
  List.iter (fun v -> Alcotest.(check int) "int" v (Codec.read_int d)) ints;
  Alcotest.(check bool) "bool" true (Codec.read_bool d);
  Alcotest.(check string) "string" "snapshot" (Codec.read_string d);
  Codec.expect_end d "ints"

let roundtrip_rows () =
  let rows =
    [ [| 3; -1; 10 |]; [| 3; 0; 9 |]; [| 4; 4; 4 |]; [| 100; -7; 0 |] ]
  in
  let e = Codec.encoder () in
  Codec.write_rows e ~arity:3 rows;
  Codec.write_rows e ~arity:0 [ [||]; [||] ];
  Codec.write_rows e ~arity:2 [];
  let d = Codec.decoder (Codec.contents e) in
  Alcotest.(check (list (array int)))
    "rows" rows
    (Codec.read_rows d ~arity:3);
  Alcotest.(check int) "arity-0 rows" 2 (List.length (Codec.read_rows d ~arity:0));
  Alcotest.(check (list (array int))) "empty" [] (Codec.read_rows d ~arity:2);
  Codec.expect_end d "rows"

let decoder_rejects () =
  let e = Codec.encoder () in
  Codec.write_string e "truncate me well past one byte";
  let s = Codec.contents e in
  let d = Codec.decoder (String.sub s 0 (String.length s / 2)) in
  Alcotest.check_raises "short" (Codec.Short "bytes")
    (fun () -> ignore (Codec.read_string d));
  Alcotest.check_raises "trailing" (Codec.Corrupt "x: 1 trailing bytes")
    (fun () -> Codec.expect_end (Codec.decoder "!") "x")

(* hostile counts are corruption, not allocation requests: a varint
   past a non-negative int, a row count the remaining bytes cannot pay
   for, or an arity-0 block past its fixed cap *)
let counts_bounded () =
  let corrupt what f =
    match f () with
    | exception Codec.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s: decoded" what
  in
  let sign_bit = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  corrupt "negative varint" (fun () -> Codec.read_uint (Codec.decoder sign_bit));
  corrupt "negative row count" (fun () ->
      Codec.read_rows (Codec.decoder sign_bit) ~arity:2);
  let block n =
    let e = Codec.encoder () in
    Codec.write_uint e n;
    Codec.write_string e (String.make 30 '\000');
    Codec.decoder (Codec.contents e)
  in
  (* 31 bytes follow the count: 10 rows of arity 3 fit, 11 do not *)
  Alcotest.(check int) "payload-backed count" 10
    (List.length (Codec.read_rows (block 10) ~arity:3));
  corrupt "count beyond payload" (fun () ->
      Codec.read_rows (block 11) ~arity:3);
  Alcotest.(check int) "arity-0 cap" 65_536
    (List.length (Codec.read_rows (block 65_536) ~arity:0));
  corrupt "arity-0 past cap" (fun () ->
      Codec.read_rows (block 65_537) ~arity:0);
  let e = Codec.encoder () in
  List.iter (Codec.write_value e) [ max_int; min_int; -5; 0 ];
  let d = Codec.decoder (Codec.contents e) in
  List.iter
    (fun v -> Alcotest.(check int) "value" v (Codec.read_value d))
    [ max_int; min_int; -5; 0 ];
  corrupt "value tag 3" (fun () -> Codec.read_value (Codec.decoder "\x03"))

let crc_known_vector () =
  (* the standard CRC-32/ISO-HDLC check value *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  let t = Crc32.update Crc32.init "12345" ~pos:0 ~len:5 in
  let t = Crc32.update t "6789xxx" ~pos:0 ~len:4 in
  Alcotest.(check int) "incremental" 0xCBF43926 (Crc32.finish t)

(* ------------------------------------------------------------------ *)
(* container                                                            *)
(* ------------------------------------------------------------------ *)

let temp_snap () = Filename.temp_file "stt_store_test" ".snap"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip_byte path pos =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0xFF));
  write_file path (Bytes.to_string s)

let expect_error what pred = function
  | Ok _ -> Alcotest.failf "%s: load unexpectedly succeeded" what
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: unexpected error: %s" what (Store.error_to_string e)

let sample_sections =
  [
    ("alpha", fun e -> Codec.write_uint e 42);
    ("beta", fun e -> Codec.write_string e (String.make 64 'b'));
  ]

let container_roundtrip () =
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Store.write ~version:7 path sample_sections with
  | Ok bytes -> Alcotest.(check bool) "bytes" true (bytes > 0)
  | Error e -> Alcotest.failf "write: %s" (Store.error_to_string e));
  match Store.Reader.load ~version:7 path with
  | Error e -> Alcotest.failf "load: %s" (Store.error_to_string e)
  | Ok r ->
      Alcotest.(check (list string))
        "names" [ "alpha"; "beta" ]
        (Store.Reader.section_names r);
      (match Store.Reader.section r "alpha" Codec.read_uint with
      | Ok v -> Alcotest.(check int) "alpha" 42 v
      | Error e -> Alcotest.failf "alpha: %s" (Store.error_to_string e));
      expect_error "gamma"
        (function Store.Missing_section "gamma" -> true | _ -> false)
        (Store.Reader.section r "gamma" Codec.read_uint);
      (* a decoder that stops early must not pass validation *)
      expect_error "partial read"
        (function Store.Malformed _ -> true | _ -> false)
        (Store.Reader.section r "beta" (fun d -> Codec.read_u8 d))

let container_rejects_damage () =
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let fresh () =
    match Store.write ~version:7 path sample_sections with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "write: %s" (Store.error_to_string e)
  in
  let load () = Store.Reader.load ~version:7 path in
  fresh ();
  let size = String.length (read_file path) in
  (* wrong magic *)
  flip_byte path 0;
  expect_error "magic" (function Store.Bad_magic -> true | _ -> false) (load ());
  (* version skew: the u32 at bytes 8..11 *)
  fresh ();
  flip_byte path 8;
  expect_error "version"
    (function
      | Store.Version_skew { found; expected = 7 } -> found <> 7
      | _ -> false)
    (load ());
  (* truncation, from one byte lost to an empty file *)
  fresh ();
  let whole = read_file path in
  List.iter
    (fun keep ->
      write_file path (String.sub whole 0 keep);
      expect_error
        (Printf.sprintf "truncated to %d" keep)
        (function Store.Truncated _ -> true | _ -> false)
        (load ()))
    [ size - 1; size / 2; 9; 4; 0 ];
  (* payload corruption: byte 20 sits inside "beta"'s 64-byte payload
     well past the framing of both tiny sections *)
  fresh ();
  flip_byte path (size - 10);
  expect_error "payload"
    (function Store.Checksum_mismatch _ -> true | _ -> false)
    (load ());
  (* trailing garbage after the end marker *)
  fresh ();
  write_file path (read_file path ^ "!");
  expect_error "trailing"
    (function Store.Malformed _ -> true | _ -> false)
    (load ())

(* ------------------------------------------------------------------ *)
(* engine snapshots                                                     *)
(* ------------------------------------------------------------------ *)

let sorted r = List.sort compare (List.map Array.to_list (Relation.to_list r))

let fixture =
  lazy
    (let q = Cq.Library.k_path 2 in
     let edges =
       Stt_workload.Graphs.zipf_both ~seed:11 ~vertices:300 ~edges:2500 ~s:1.1
     in
     let db = Db.create () in
     Db.add_pairs db "R" edges;
     Engine.build_auto ~max_pmtds:128 q ~db ~budget:500)

let fixture_requests idx =
  let schema = Engine.access_schema idx in
  let arity = Schema.arity schema in
  let rng = Stt_workload.Rng.create 13 in
  List.init 20 (fun _ ->
      Relation.singleton schema
        (Array.init arity (fun _ -> Stt_workload.Rng.int rng 300)))

let check_identical what fresh loaded reqs =
  Alcotest.(check int) (what ^ ": space") (Engine.space fresh)
    (Engine.space loaded);
  List.iter
    (fun q_a ->
      let expect, expect_cost = Cost.measure (fun () -> Engine.answer fresh ~q_a) in
      let got, got_cost = Cost.measure (fun () -> Engine.answer loaded ~q_a) in
      Alcotest.(check (list (list int)))
        (what ^ ": answer") (sorted expect) (sorted got);
      Alcotest.(check bool)
        (what ^ ": op counts") true
        (expect_cost = got_cost))
    reqs;
  let batch_fresh = Engine.answer_batch fresh reqs in
  let batch_loaded = Engine.answer_batch loaded reqs in
  List.iter2
    (fun (r, c) (r', c') ->
      Alcotest.(check (list (list int)))
        (what ^ ": batch answer") (sorted r) (sorted r');
      Alcotest.(check bool) (what ^ ": batch cost") true (c = c'))
    batch_fresh batch_loaded

let save_exn idx path =
  match Engine.save idx path with
  | Ok bytes -> bytes
  | Error e -> Alcotest.failf "save: %s" (Store.error_to_string e)

let engine_roundtrip () =
  let idx = Lazy.force fixture in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let bytes = save_exn idx path in
  Alcotest.(check bool) "non-trivial file" true (bytes > 100);
  match Engine.load path with
  | Error e -> Alcotest.failf "load: %s" (Store.error_to_string e)
  | Ok loaded -> check_identical "fixture" idx loaded (fixture_requests idx)

let engine_rejects_damage () =
  let idx = Lazy.force fixture in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (save_exn idx path);
  let whole = read_file path in
  let size = String.length whole in
  (* the specific classes: flipped payload byte, truncation, version
     bump, wrong magic *)
  flip_byte path (size / 2);
  expect_error "mid-file flip"
    (function Store.Checksum_mismatch _ -> true | _ -> false)
    (Engine.load path);
  write_file path (String.sub whole 0 (size / 2));
  expect_error "half file"
    (function Store.Truncated _ -> true | _ -> false)
    (Engine.load path);
  write_file path whole;
  flip_byte path 8;
  expect_error "version bump"
    (function
      | Store.Version_skew { expected; _ } -> expected = Engine.format_version
      | _ -> false)
    (Engine.load path);
  (* a file of the previous format (bytes 8-11 hold the version) *)
  let v2 = Bytes.of_string whole in
  Bytes.set_int32_le v2 8 2l;
  write_file path (Bytes.to_string v2);
  expect_error "format version 2"
    (function
      | Store.Version_skew { found = 2; expected = 3 } -> true | _ -> false)
    (Engine.load path);
  write_file path whole;
  flip_byte path 3;
  expect_error "magic"
    (function Store.Bad_magic -> true | _ -> false)
    (Engine.load path)

(* CRC-32 detects every single-byte error, so *any* flipped byte must
   yield a typed error — sweep the file with a prime stride *)
let engine_flip_sweep () =
  let idx = Lazy.force fixture in
  let path = temp_snap () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  ignore (save_exn idx path);
  let whole = read_file path in
  let size = String.length whole in
  let pos = ref 0 in
  while !pos < size do
    write_file path whole;
    flip_byte path !pos;
    expect_error
      (Printf.sprintf "flip at byte %d" !pos)
      (fun _ -> true)
      (Engine.load path);
    pos := !pos + 251
  done

(* ------------------------------------------------------------------ *)
(* hand-encoded 2PP sections                                            *)
(* ------------------------------------------------------------------ *)

(* 3-reach, access {x0, x3}, one delegated subproblem for T-target
   {x1, x2} *)
let path3_rule =
  lazy
    (Rule.make (Cq.Library.k_path 3) ~s_targets:[]
       ~t_targets:[ Varset.of_list [ 1; 2 ] ])

(* a [Twopp.write] payload with no stored subproblem: the leaves as
   (variables, rows), then per delegated subproblem its T-target and its
   probe and safe plans as leaf numbers *)
let twopp_payload ~leaves ~plans =
  let e = Codec.encoder () in
  Codec.write_uint e 0;
  Codec.write_list e (fun _ -> ()) [];
  Codec.write_list e
    (fun (vars, rows) ->
      Relation.write e (Relation.of_list (Schema.of_list vars) rows))
    leaves;
  Codec.write_list e
    (fun (target, probe, safe) ->
      Varset.write e (Varset.of_list target);
      Codec.write_uint e 10;
      Codec.write_list e (Codec.write_uint e) probe;
      Codec.write_list e (Codec.write_uint e) safe)
    plans;
  Codec.contents e

let read_twopp payload =
  let d = Codec.decoder payload in
  let t = Twopp.read (Lazy.force path3_rule) d in
  Codec.expect_end d "twopp";
  t

let chain_leaves =
  [
    ([ 0; 1 ], [ [| 1; 2 |] ]);
    ([ 1; 2 ], [ [| 2; 3 |] ]);
    ([ 2; 3 ], [ [| 3; 4 |] ]);
  ]

let twopp_plans_checked () =
  (* the well-formed payload loads and answers through its plans *)
  let t =
    read_twopp
      (twopp_payload ~leaves:chain_leaves
         ~plans:[ ([ 1; 2 ], [ 0; 1; 2 ], [ 2; 1; 0 ]) ])
  in
  Alcotest.(check int) "one plan" 1
    (List.length (Twopp.plans t));
  let q_a = Relation.singleton (Schema.of_list [ 0; 3 ]) [| 1; 4 |] in
  (match Twopp.online t ~q_a with
  | [ (b, rel) ] ->
      Alcotest.(check bool) "the T-target" true
        (Varset.equal b (Varset.of_list [ 1; 2 ]));
      Alcotest.(check (list (list int))) "its rows" [ [ 2; 3 ] ] (sorted rel)
  | _ -> Alcotest.fail "one T-target relation expected");
  (* a plan repeated step for step is read once; one with another leaf
     order is another plan *)
  let plan = ([ 1; 2 ], [ 0; 1; 2 ], [ 2; 1; 0 ]) in
  Alcotest.(check int) "a repeated plan is dropped" 1
    (List.length
       (Twopp.plans
          (read_twopp
             (twopp_payload ~leaves:chain_leaves ~plans:[ plan; plan ]))));
  Alcotest.(check int) "another safe order is kept" 2
    (List.length
       (Twopp.plans
          (read_twopp
             (twopp_payload ~leaves:chain_leaves
                ~plans:[ plan; ([ 1; 2 ], [ 0; 1; 2 ], [ 0; 1; 2 ]) ]))));
  List.iter
    (fun (what, leaves, plans) ->
      match read_twopp (twopp_payload ~leaves ~plans) with
      | _ -> Alcotest.failf "%s: loaded" what
      | exception Codec.Corrupt _ -> ())
    [
      ( "a leaf number out of range",
        chain_leaves,
        [ ([ 1; 2 ], [ 0; 1; 3 ], [ 2; 1; 0 ]) ] );
      ( "a leaf whose variables match no atom",
        chain_leaves @ [ ([ 0; 2 ], [ [| 1; 3 |] ]) ],
        [ ([ 1; 2 ], [ 0; 1; 2 ], [ 2; 1; 0 ]) ] );
      ( "a probe plan that misses x2 of its T-target",
        chain_leaves,
        [ ([ 1; 2 ], [ 0 ], [ 2; 1; 0 ]) ] );
      ( "an empty safe plan",
        chain_leaves,
        [ ([ 1; 2 ], [ 0; 1; 2 ], []) ] );
      ( "a T-target that is not the rule's",
        chain_leaves,
        [ ([ 0; 1; 2 ], [ 0; 1; 2 ], [ 2; 1; 0 ]) ] );
    ]

(* ------------------------------------------------------------------ *)
(* canonical bytes                                                      *)
(* ------------------------------------------------------------------ *)

module Fconfig = Stt_factorized.Config
module Semiring = Stt_semiring.Semiring

let with_mode m f =
  let saved = Fconfig.mode () in
  Fconfig.set_mode m;
  Fun.protect ~finally:(fun () -> Fconfig.set_mode saved) f

let reach_engine ~k ~seed ~budget =
  let db = Db.create () in
  Db.add_pairs db "R"
    (Stt_workload.Graphs.zipf_both ~seed ~vertices:400 ~edges:4000 ~s:1.1);
  (db, Engine.build_auto (Cq.Library.k_path k) ~db ~budget)

(* save (load (save e)) = save e, byte for byte *)
let check_canonical what e =
  let first = temp_snap () and second = temp_snap () in
  Fun.protect ~finally:(fun () ->
      Sys.remove first;
      Sys.remove second)
  @@ fun () ->
  ignore (save_exn e first);
  (match Engine.load first with
  | Error err -> Alcotest.failf "%s: load: %s" what (Store.error_to_string err)
  | Ok loaded -> ignore (save_exn loaded second));
  let a = read_file first and b = read_file second in
  if not (String.equal a b) then
    Alcotest.failf "%s: re-saved snapshot differs (%d vs %d bytes)" what
      (String.length a) (String.length b)

let canonical_2reach () =
  with_mode Fconfig.Auto @@ fun () ->
  let db, e = reach_engine ~k:2 ~seed:113 ~budget:2000 in
  Alcotest.(check bool) "a view is factorized" true
    (Engine.factorized_views e > 0);
  check_canonical "2-reach" e;
  (* the same engine with aggregate tables and a warm cache holding
     tuple and aggregate answers *)
  Engine.enable_agg ~kinds:[ Semiring.Count; Semiring.Min ] e ~db
    ~budget:100_000;
  Engine.attach_cache e ~budget:5000;
  let schema = Engine.access_schema e in
  List.iteri
    (fun i tup ->
      let q_a = Relation.singleton schema tup in
      if i mod 4 = 0 then ignore (Engine.answer_agg e Semiring.Count ~q_a)
      else ignore (Engine.answer e ~q_a))
    (Stt_workload.Scenario.zipf_requests ~seed:7 ~n:400 ~requests:600
       ~skew:1.1 ~arity:(Schema.arity schema));
  Alcotest.(check bool) "cache is warm" true (Engine.cache_space e > 0);
  check_canonical "2-reach with aggregates and cache" e

let canonical_3reach_forced () =
  with_mode Fconfig.Forced @@ fun () ->
  let _, e = reach_engine ~k:3 ~seed:131 ~budget:800 in
  check_canonical "3-reach, factorization forced" e

(* ------------------------------------------------------------------ *)
(* randomized round-trip differential                                   *)
(* ------------------------------------------------------------------ *)

let n_instances = 50
let base_seed = 0x5A9

let run_one i =
  let rec attempt k =
    let seed = base_seed + (1000 * i) + k in
    let inst = Diff_harness.gen_instance seed in
    match Diff_harness.build_index inst with
    | exception Diff_harness.Skip reason ->
        if k >= 20 then
          Alcotest.failf "instance %d: no buildable query after %d tries (%s)"
            i (k + 1) reason
        else attempt (k + 1)
    | idx, _ ->
        let path = temp_snap () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        ignore (save_exn idx path);
        (match Engine.load path with
        | Error e ->
            Alcotest.failf "instance %d (seed %d): load: %s" i seed
              (Store.error_to_string e)
        | Ok loaded ->
            check_identical
              (Printf.sprintf "instance %d (seed %d)" i seed)
              idx loaded
              [ inst.Diff_harness.q_a ])
  in
  attempt 0

let test_differential () =
  for i = 0 to n_instances - 1 do
    run_one i
  done

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "int round trips" `Quick roundtrip_ints;
          Alcotest.test_case "row blocks round trip" `Quick roundtrip_rows;
          Alcotest.test_case "decoder rejects bad input" `Quick decoder_rejects;
          Alcotest.test_case "counts are bounded where read" `Quick
            counts_bounded;
          Alcotest.test_case "crc32 known vector" `Quick crc_known_vector;
        ] );
      ( "container",
        [
          Alcotest.test_case "write/read round trip" `Quick container_roundtrip;
          Alcotest.test_case "damage maps to typed errors" `Quick
            container_rejects_damage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "snapshot round trip is observationally identical"
            `Quick engine_roundtrip;
          Alcotest.test_case "damaged snapshots are rejected" `Quick
            engine_rejects_damage;
          Alcotest.test_case "every flipped byte is caught" `Slow
            engine_flip_sweep;
          Alcotest.test_case "2-reach re-saves to the same bytes" `Quick
            canonical_2reach;
          Alcotest.test_case "forced 3-reach re-saves to the same bytes"
            `Quick canonical_3reach_forced;
          Alcotest.test_case "2PP plans that cannot produce their target"
            `Quick twopp_plans_checked;
        ] );
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random instances round-trip" n_instances)
            `Slow test_differential;
        ] );
    ]
