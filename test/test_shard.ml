(* The sharded serving tier, bottom to top.

   The consistent-hash ring must spread canonical keys roughly evenly,
   move only the departed/arrived shard's keys on membership change, and
   route canonically-equal requests identically.  A loopback router over
   three in-process replicas must answer exactly what the direct engine
   handler answers — rows and per-tuple op accounting — survive a
   replica dying mid-workload by re-routing its tuples (zero lost, zero
   duplicated), propagate shard rejections whole-batch, and aggregate
   the fleet's protocol-v5 health with restart detection. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
module Frame = Stt_net.Frame
module Server = Stt_net.Server
module Client = Stt_net.Client
module Ring = Stt_shard.Ring
module Router = Stt_shard.Router
module Key = Stt_cache.Key
module Obs = Stt_obs.Obs
module Json = Stt_obs.Json

(* ------------------------------------------------------------------ *)
(* ring: placement                                                      *)
(* ------------------------------------------------------------------ *)

let synthetic_keys n =
  let rng = Stt_workload.Rng.create 97 in
  List.init n (fun _ ->
      Key.of_tuple ~arity:2
        [| Stt_workload.Rng.int rng 100_000; Stt_workload.Rng.int rng 100_000 |])

let tally ring keys =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun k ->
      let s = Ring.owner ring k in
      Hashtbl.replace tbl s (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s)))
    keys;
  tbl

let ring_uniformity () =
  let names = [ "shard-0"; "shard-1"; "shard-2" ] in
  let ring = Ring.create names in
  Alcotest.(check (list string)) "members" names (Ring.shards ring);
  let keys = synthetic_keys 1000 in
  let tbl = tally ring keys in
  List.iter
    (fun name ->
      let share = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
      (* 128 vnodes/shard: each of 3 shards should be within a loose
         band around the fair third of 1000 keys *)
      Alcotest.(check bool)
        (Printf.sprintf "%s share %d within [150, 550]" name share)
        true
        (share >= 150 && share <= 550))
    names

let ring_minimal_movement () =
  let ring3 = Ring.create [ "shard-0"; "shard-1"; "shard-2" ] in
  let ring4 = Ring.add ring3 "shard-3" in
  let keys = synthetic_keys 1000 in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let before = Ring.owner ring3 k and after = Ring.owner ring4 k in
      if before <> after then begin
        incr moved;
        (* every movement lands on the newcomer, never reshuffles the
           survivors among themselves *)
        Alcotest.(check string) "moved keys go to the new shard" "shard-3"
          after
      end)
    keys;
  (* fair share for the 4th shard is ~250 of 1000 *)
  Alcotest.(check bool)
    (Printf.sprintf "movement %d near the fair quarter" !moved)
    true
    (!moved > 100 && !moved < 450);
  (* removal is the mirror image: only the departed shard's keys move *)
  let ring3' = Ring.remove ring4 "shard-3" in
  List.iter
    (fun k ->
      Alcotest.(check string) "remove restores the original owner"
        (Ring.owner ring3 k) (Ring.owner ring3' k))
    keys

let ring_owners_failover () =
  let ring = Ring.create [ "a"; "b"; "c" ] in
  List.iter
    (fun k ->
      let owners = Ring.owners ring ~n:3 k in
      Alcotest.(check int) "three distinct owners" 3
        (List.length (List.sort_uniq compare owners));
      Alcotest.(check string) "head is the owner" (Ring.owner ring k)
        (List.hd owners))
    (synthetic_keys 50);
  Alcotest.(check (list string)) "empty ring has no owners" []
    (Ring.owners (Ring.create []) ~n:2 "x")

(* routing, caching, and batch dedup share one equivalence: a request
   with permuted rows/columns canonicalizes to the same bytes, so it
   must land on the same shard and the same warm cache entry *)
let ring_canonical_stability () =
  let ring = Ring.create [ "shard-0"; "shard-1"; "shard-2" ] in
  let access = Schema.of_list [ 2; 5 ] in
  let q1 =
    Relation.of_list (Schema.of_list [ 2; 5 ]) [ [| 1; 2 |]; [| 3; 4 |] ]
  in
  (* same rows, permuted row order and column order *)
  let q2 =
    Relation.of_list (Schema.of_list [ 5; 2 ]) [ [| 4; 3 |]; [| 2; 1 |] ]
  in
  Alcotest.(check string) "permuted batches share a shard"
    (Ring.owner ring (Key.of_request ~access q1))
    (Ring.owner ring (Key.of_request ~access q2));
  (* a wire tuple's routing key is byte-identical to the cache key of
     the one-row request it denotes — the drift guard the router leans
     on *)
  let tup = [| 7; 9 |] in
  let singleton = Relation.of_list (Schema.of_list [ 2; 5 ]) [ tup ] in
  Alcotest.(check string) "of_tuple = of_request on a singleton"
    (Key.of_request ~access singleton)
    (Key.of_tuple ~arity:2 tup);
  Alcotest.(check string) "physical tuple identity is irrelevant"
    (Ring.owner ring (Key.of_tuple ~arity:2 tup))
    (Ring.owner ring (Key.of_tuple ~arity:2 (Array.copy tup)))

let ring_determinism () =
  (* same membership, same keys, same owners — across construction
     orders (the process-independence the FNV hash buys) *)
  let r1 = Ring.create [ "a"; "b"; "c" ] in
  let r2 = Ring.create [ "c"; "a"; "b" ] in
  List.iter
    (fun k ->
      Alcotest.(check string) "construction order is irrelevant"
        (Ring.owner r1 k) (Ring.owner r2 k))
    (synthetic_keys 200)

(* ------------------------------------------------------------------ *)
(* loopback fleet fixture                                               *)
(* ------------------------------------------------------------------ *)

let fixture =
  lazy
    (let q = Cq.Library.k_path 2 in
     let db =
       Stt_workload.Scenario.synthetic_db ~seed:11 ~vertices:300 ~edges:2500
     in
     let idx = Engine.build_auto ~max_pmtds:128 q ~db ~budget:500 in
     Engine.enable_agg idx ~db ~budget:10_000;
     idx)

let fixture_tuples n seed =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  let rng = Stt_workload.Rng.create seed in
  List.init n (fun _ ->
      Array.init arity (fun _ -> Stt_workload.Rng.int rng 300))

(* three in-process replicas behind a router; every replica serves the
   same engine — full snapshots, the premise of sound failover *)
let with_fleet ?(replicas = 3) ?(workers = 1) ?(queue = 64) f =
  let idx = Lazy.force fixture in
  let handler = Server.engine_handler idx in
  let servers =
    List.init replicas (fun _ ->
        Server.start ~port:0 ~workers ~queue_capacity:queue
          ~agg_handler:(Server.engine_agg_handler idx) handler)
  in
  let endpoints =
    List.mapi
      (fun i s ->
        {
          Router.name = Printf.sprintf "shard-%d" i;
          host = "127.0.0.1";
          port = Server.port s;
        })
      servers
  in
  let router =
    Router.start ~port:0 ~workers:2 ~queue_capacity:queue endpoints
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      ignore (Router.wait router);
      List.iter
        (fun s ->
          Server.stop s;
          ignore (Server.wait s))
        servers)
    (fun () -> f router servers handler)

let with_client port f =
  match Client.connect ~port () with
  | Error e -> Alcotest.failf "connect: %s" (Frame.error_to_string e)
  | Ok client ->
      Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let rpc_exn client req =
  match Client.rpc client req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "rpc: %s" (Frame.error_to_string e)

(* ------------------------------------------------------------------ *)
(* scatter/gather                                                       *)
(* ------------------------------------------------------------------ *)

(* what the router scatters: the same grouping a ring over the fleet's
   names produces.  Per-tuple op counts are a property of the sub-batch
   a shard evaluates (batch-shared cost is split evenly inside each
   batch), so cost identity is checked against a direct call per owner
   group, while rows are batch-invariant and checked against the full
   direct batch. *)
let owner_groups names tuples =
  let ring = Ring.create names in
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iteri
    (fun i tup ->
      let owner = Ring.owner ring (Key.of_tuple ~arity:(Array.length tup) tup) in
      match Hashtbl.find_opt tbl owner with
      | Some l -> l := (i, tup) :: !l
      | None ->
          Hashtbl.add tbl owner (ref [ (i, tup) ]);
          order := owner :: !order)
    tuples;
  List.rev_map (fun o -> List.rev !(Hashtbl.find tbl o)) !order

let routed_matches_direct () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  let names = [ "shard-0"; "shard-1"; "shard-2" ] in
  with_fleet @@ fun router _servers handler ->
  with_client (Router.port router) @@ fun client ->
  List.iteri
    (fun i tuples ->
      let expected_rows = handler ~arity tuples in
      let expected_costs = Array.make (List.length tuples) None in
      List.iter
        (fun group ->
          let answers = handler ~arity (List.map snd group) in
          List.iter2
            (fun (j, _) (_, _, cost) -> expected_costs.(j) <- Some cost)
            group answers)
        (owner_groups names tuples);
      match
        rpc_exn client (Frame.Answer { id = i; deadline_us = 0; arity; tuples })
      with
      | Frame.Answers { id; answers } ->
          Alcotest.(check int) "id echoed" i id;
          Alcotest.(check int) "answer per tuple" (List.length expected_rows)
            (List.length answers);
          (* gather preserved request order; every answer carries the
             op-count snapshot its owner shard measured on its sub-batch *)
          List.iteri
            (fun j (a : Frame.answer) ->
              let rows, row_arity, _ = List.nth expected_rows j in
              Alcotest.(check (list (array int))) "same rows" rows a.Frame.rows;
              Alcotest.(check int) "same arity" row_arity a.Frame.row_arity;
              Alcotest.(check bool) "same op counts as the owner group" true
                (expected_costs.(j) = Some a.Frame.cost))
            answers
      | _ -> Alcotest.fail "expected Answers")
    [
      fixture_tuples 5 41;
      fixture_tuples 24 42;
      (match fixture_tuples 1 43 with
      | [ t ] -> [ t; Array.copy t; t ]
      | _ -> assert false);
    ]

let router_rejects_updates () =
  with_fleet @@ fun router _ _ ->
  with_client (Router.port router) @@ fun client ->
  match rpc_exn client (Frame.Update { id = 5; deltas = [] }) with
  | Frame.Rejected { id = 5; reject = Frame.Bad_request _ } -> ()
  | _ -> Alcotest.fail "expected Bad_request for Update through the router"

let deadline_rejection_propagates () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  with_fleet @@ fun router _ _ ->
  with_client (Router.port router) @@ fun client ->
  (* 1us is gone before any shard worker picks the job up; the shard
     rejects and the router must reject the whole batch, never a
     partial answer — tuple answers and aggregates alike *)
  let tuples = fixture_tuples 6 44 in
  List.iter
    (fun req ->
      match rpc_exn client req with
      | Frame.Rejected { id = 9; reject = Frame.Deadline_exceeded } -> ()
      | Frame.Answers _ | Frame.Agg_reply _ ->
          Alcotest.fail "a 1us deadline cannot be met"
      | _ -> Alcotest.fail "expected Deadline_exceeded")
    [
      Frame.Answer { id = 9; deadline_us = 1; arity; tuples };
      Frame.Agg { id = 9; deadline_us = 1; kind = 1; arity; tuples };
    ]

(* with Obs on, each role's Stats still carries the service-time
   histograms the serving benchmark's traced run reads, one per request
   kind *)
let stats_keep_serve_histograms () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
  with_fleet ~replicas:1 @@ fun router servers _ ->
  let replica = Server.port (List.hd servers) in
  let tuples = fixture_tuples 4 91 in
  with_client (Router.port router) (fun client ->
      ignore
        (rpc_exn client (Frame.Answer { id = 1; deadline_us = 0; arity; tuples }));
      ignore
        (rpc_exn client
           (Frame.Agg { id = 2; deadline_us = 0; kind = 1; arity; tuples })));
  (* the router rejects updates inline; a replica queues one even
     without an update handler *)
  with_client replica (fun client ->
      ignore (rpc_exn client (Frame.Update { id = 3; deltas = [] })));
  let histograms port =
    with_client port @@ fun client ->
    match rpc_exn client (Frame.Stats { id = 4 }) with
    | Frame.Stats_reply { json; _ } -> (
        match Result.map (Json.member "histograms") (Json.of_string json) with
        | Ok (Some (Json.Obj hs)) -> List.map fst hs
        | _ -> [])
    | _ -> Alcotest.fail "expected Stats_reply"
  in
  (* a job merges its trace just after it replies: poll briefly *)
  let rec expect port names tries =
    let have = histograms port in
    match List.filter (fun n -> not (List.mem n have)) names with
    | [] -> ()
    | missing when tries = 0 ->
        Alcotest.failf "Stats lacks %s" (String.concat ", " missing)
    | _ ->
        Unix.sleepf 0.01;
        expect port names (tries - 1)
  in
  expect replica [ "net.serve_us"; "net.agg_us"; "net.update_us" ] 100;
  expect (Router.port router) [ "route.serve_us"; "route.agg_us" ] 100

(* a replica dies WITHOUT being drained from the ring: its tuples must
   fail over to the next owner, completing every batch with zero lost
   and zero duplicated answers *)
let failover_reroutes () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  with_fleet @@ fun router servers handler ->
  let dead = List.nth servers 2 in
  Server.stop dead;
  ignore (Server.wait dead);
  with_client (Router.port router) @@ fun client ->
  List.iteri
    (fun i tuples ->
      let expected = handler ~arity tuples in
      match
        rpc_exn client (Frame.Answer { id = i; deadline_us = 0; arity; tuples })
      with
      | Frame.Answers { id; answers } ->
          Alcotest.(check int) "id echoed" i id;
          List.iter2
            (fun (rows, _, _) (a : Frame.answer) ->
              Alcotest.(check (list (array int))) "rows survive failover" rows
                a.Frame.rows)
            expected answers
      | _ -> Alcotest.fail "expected Answers despite a dead shard")
    [ fixture_tuples 20 51; fixture_tuples 20 52; fixture_tuples 20 53 ];
  (* 60 tuples over 3 shards: statistically certain some were owned by
     the dead shard and had to be re-routed *)
  Alcotest.(check bool) "re-routes recorded" true (Router.retried_tuples router > 0);
  Alcotest.(check bool) "shard errors recorded" true (Router.shard_errors router > 0)

let drain_then_serve () =
  let idx = Lazy.force fixture in
  let arity = Schema.arity (Engine.access_schema idx) in
  with_fleet @@ fun router servers handler ->
  (* the graceful order: ring first, then the process — after this, no
     new tuple routes to shard-1 and nothing needs re-routing *)
  Router.drain_shard router "shard-1";
  Alcotest.(check (list string)) "ring shrank" [ "shard-0"; "shard-2" ]
    (Router.shards router);
  let s1 = List.nth servers 1 in
  Server.stop s1;
  ignore (Server.wait s1);
  let errors_before = Router.shard_errors router in
  with_client (Router.port router) @@ fun client ->
  let tuples = fixture_tuples 20 61 in
  let expected = handler ~arity tuples in
  (match
     rpc_exn client (Frame.Answer { id = 1; deadline_us = 0; arity; tuples })
   with
  | Frame.Answers { answers; _ } ->
      List.iter2
        (fun (rows, _, _) (a : Frame.answer) ->
          Alcotest.(check (list (array int))) "rows after drain" rows
            a.Frame.rows)
        expected answers
  | _ -> Alcotest.fail "expected Answers after drain");
  Alcotest.(check int) "a drained shard causes no transport errors"
    errors_before (Router.shard_errors router)

(* ------------------------------------------------------------------ *)
(* aggregates through the router                                        *)
(* ------------------------------------------------------------------ *)

(* a routed aggregate is the ⊕-merge of per-shard partials: the value
   must equal one direct [answer_agg] over the whole tuple set (every
   valuation projects to exactly one access tuple, so the shard
   partition never double-counts), and the cost must equal the sum of
   each owner group's direct cost *)
let routed_agg_matches_direct () =
  let idx = Lazy.force fixture in
  let schema = Engine.access_schema idx in
  let arity = Schema.arity schema in
  let names = [ "shard-0"; "shard-1"; "shard-2" ] in
  with_fleet @@ fun router _servers _handler ->
  with_client (Router.port router) @@ fun client ->
  List.iteri
    (fun i tuples ->
      List.iter
        (fun k ->
          let direct, _ =
            Engine.answer_agg idx k ~q_a:(Relation.of_list schema tuples)
          in
          let group_cost =
            List.fold_left
              (fun acc group ->
                let q_a = Relation.of_list schema (List.map snd group) in
                Cost.add acc (snd (Engine.answer_agg idx k ~q_a)))
              Cost.zero (owner_groups names tuples)
          in
          let kind = Stt_semiring.Semiring.to_tag k in
          match
            rpc_exn client
              (Frame.Agg { id = i; deadline_us = 0; kind; arity; tuples })
          with
          | Frame.Agg_reply { id; value; cost } ->
              Alcotest.(check int) "id echoed" i id;
              Alcotest.(check int)
                (Printf.sprintf "%s routed = direct"
                   (Stt_semiring.Semiring.name k))
                direct value;
              Alcotest.(check bool) "cost is the sum of owner-group costs"
                true (cost = group_cost)
          | _ -> Alcotest.fail "expected Agg_reply")
        Stt_semiring.Semiring.all)
    [ fixture_tuples 5 71; fixture_tuples 24 72 ]

(* a dead replica's groups fail over; completed partials must be merged
   exactly once — any double-count would break value equality *)
let agg_failover_no_double_count () =
  let idx = Lazy.force fixture in
  let schema = Engine.access_schema idx in
  let arity = Schema.arity schema in
  with_fleet @@ fun router servers _handler ->
  let dead = List.nth servers 2 in
  Server.stop dead;
  ignore (Server.wait dead);
  with_client (Router.port router) @@ fun client ->
  List.iteri
    (fun i tuples ->
      List.iter
        (fun k ->
          let direct, _ =
            Engine.answer_agg idx k ~q_a:(Relation.of_list schema tuples)
          in
          let kind = Stt_semiring.Semiring.to_tag k in
          match
            rpc_exn client
              (Frame.Agg { id = i; deadline_us = 0; kind; arity; tuples })
          with
          | Frame.Agg_reply { value; _ } ->
              Alcotest.(check int)
                (Printf.sprintf "%s survives failover exactly-once"
                   (Stt_semiring.Semiring.name k))
                direct value
          | _ -> Alcotest.fail "expected Agg_reply despite a dead shard")
        Stt_semiring.Semiring.all)
    [ fixture_tuples 20 81; fixture_tuples 20 82; fixture_tuples 20 83 ];
  Alcotest.(check bool) "re-routes recorded" true
    (Router.retried_tuples router > 0);
  Alcotest.(check bool) "shard errors recorded" true
    (Router.shard_errors router > 0)

(* ------------------------------------------------------------------ *)
(* fleet health                                                         *)
(* ------------------------------------------------------------------ *)

let health_aggregates () =
  with_fleet ~workers:2 @@ fun router _servers _ ->
  with_client (Router.port router) @@ fun client ->
  match rpc_exn client (Frame.Health { id = 3 }) with
  | Frame.Health_reply { id = 3; health } ->
      Alcotest.(check bool) "fleet ready" true health.Frame.ready;
      Alcotest.(check int) "summed workers" 6 health.Frame.workers;
      Alcotest.(check int) "three shard blocks" 3
        (List.length health.Frame.shards);
      Alcotest.(check (list string)) "blocks carry ring names"
        [ "shard-0"; "shard-1"; "shard-2" ]
        (List.map fst health.Frame.shards);
      Alcotest.(check bool) "router uptime is monotonic and positive" true
        (health.Frame.uptime_ns > 0);
      List.iter
        (fun (name, (h : Frame.health)) ->
          Alcotest.(check bool) (name ^ " ready") true h.Frame.ready;
          Alcotest.(check bool) (name ^ " uptime positive") true
            (h.Frame.uptime_ns > 0);
          Alcotest.(check (list string)) (name ^ " is a leaf") []
            (List.map fst h.Frame.shards))
        health.Frame.shards
  | _ -> Alcotest.fail "expected Health_reply"

let health_flags_dead_shard () =
  with_fleet @@ fun router servers _ ->
  let dead = List.nth servers 0 in
  Server.stop dead;
  ignore (Server.wait dead);
  with_client (Router.port router) @@ fun client ->
  match rpc_exn client (Frame.Health { id = 4 }) with
  | Frame.Health_reply { id = 4; health } ->
      Alcotest.(check bool) "fleet not ready with a dead shard" false
        health.Frame.ready;
      let h0 = List.assoc "shard-0" health.Frame.shards in
      Alcotest.(check bool) "dead shard block not ready" false h0.Frame.ready;
      Alcotest.(check string) "dead shard unreachable" "unreachable"
        h0.Frame.io_backend;
      let h1 = List.assoc "shard-1" health.Frame.shards in
      Alcotest.(check bool) "live shard still ready" true h1.Frame.ready
  | _ -> Alcotest.fail "expected Health_reply"

(* uptime regression across polls = the shard restarted: a fresh
   process's statistics do not continue the previous one's *)
let restart_detection () =
  let idx = Lazy.force fixture in
  let handler = Server.engine_handler idx in
  with_fleet @@ fun router servers _ ->
  with_client (Router.port router) @@ fun client ->
  (* let the original shard-1 accumulate visible uptime, then record it *)
  Unix.sleepf 0.2;
  (match rpc_exn client (Frame.Health { id = 1 }) with
  | Frame.Health_reply _ -> ()
  | _ -> Alcotest.fail "expected Health_reply");
  Alcotest.(check int) "no restarts yet" 0 (Router.restarts router);
  (* restart shard-1 on the SAME port: the upstream entry survives, so
     the next poll sees the fresh process's near-zero uptime fall below
     the recorded one — the staleness signal *)
  let old = List.nth servers 1 in
  let port1 = Server.port old in
  Server.stop old;
  ignore (Server.wait old);
  let fresh = Server.start ~port:port1 ~workers:1 ~queue_capacity:16 handler in
  Fun.protect
    ~finally:(fun () ->
      Server.stop fresh;
      ignore (Server.wait fresh))
    (fun () ->
      match rpc_exn client (Frame.Health { id = 2 }) with
      | Frame.Health_reply { id = 2; health } ->
          Alcotest.(check bool) "fleet ready again" true health.Frame.ready;
          Alcotest.(check int) "restart detected via uptime regression" 1
            (Router.restarts router)
      | _ -> Alcotest.fail "expected Health_reply")

let () =
  Stt_relation.Pool.set_jobs 2;
  Alcotest.run "shard"
    [
      ( "ring",
        [
          Alcotest.test_case "uniform spread over 1k keys" `Quick
            ring_uniformity;
          Alcotest.test_case "minimal movement on add/remove" `Quick
            ring_minimal_movement;
          Alcotest.test_case "owners are distinct failover order" `Quick
            ring_owners_failover;
          Alcotest.test_case "canonically-equal requests share a shard" `Quick
            ring_canonical_stability;
          Alcotest.test_case "deterministic across construction order" `Quick
            ring_determinism;
        ] );
      ( "router",
        [
          Alcotest.test_case "routed equals direct answer_batch" `Quick
            routed_matches_direct;
          Alcotest.test_case "updates rejected" `Quick router_rejects_updates;
          Alcotest.test_case "deadline rejection is whole-batch" `Quick
            deadline_rejection_propagates;
          Alcotest.test_case "dead shard fails over, zero loss" `Quick
            failover_reroutes;
          Alcotest.test_case "drained shard leaves quietly" `Quick
            drain_then_serve;
          Alcotest.test_case "stats keep per-kind serve histograms" `Quick
            stats_keep_serve_histograms;
        ] );
      ( "agg",
        [
          Alcotest.test_case "routed aggregate equals direct answer_agg"
            `Quick routed_agg_matches_direct;
          Alcotest.test_case "failover merges partials exactly once" `Quick
            agg_failover_no_double_count;
        ] );
      ( "health",
        [
          Alcotest.test_case "fleet health aggregates v5 blocks" `Quick
            health_aggregates;
          Alcotest.test_case "dead shard flags fleet not ready" `Quick
            health_flags_dead_shard;
          Alcotest.test_case "uptime regression counts a restart" `Quick
            restart_detection;
        ] );
    ]
