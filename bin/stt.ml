(* stt — space-time tradeoffs for CQAPs, from the command line.

   stt queries                         list built-in queries
   stt pmtds  --query 3reach           enumerate PMTDs
   stt rules  --query 3reach           generate 2-phase disjunctive rules
   stt tradeoff --query 3reach [--logs 1.25] [--logq 0]
                                       per-rule tradeoffs / OBJ(S)
   stt curve  --query 4reach --steps 8 combined curve over log_D S ∈ [0,2]
   stt demo   --query 2reach --budget 1000 --edges 4000
                                       build an index on a synthetic graph
                                       and report measured space/time
   stt snapshot --query 2reach -o q.snap
                                       build once, save a binary snapshot
   stt serve  --from-snapshot q.snap   serve without rebuilding
   stt serve-net --from-snapshot q.snap --port 7421
                                       serve over TCP (worker domains,
                                       bounded queue, deadlines; SIGTERM
                                       drains and flushes an artifact)
   stt bench-net --port 7421 --connections 8 --requests 10000
                                       closed-loop Zipf load generator:
                                       answers/sec + p50/p95/p99 *)

open Cmdliner
open Stt_hypergraph
open Stt_decomp
open Stt_core
open Stt_lp
open Stt_obs

let builtin_queries =
  [
    ("2reach", lazy (Cq.Library.k_path 2));
    ("3reach", lazy (Cq.Library.k_path 3));
    ("4reach", lazy (Cq.Library.k_path 4));
    ("setdisj2", lazy (Cq.Library.k_set_disjointness 2));
    ("setdisj3", lazy (Cq.Library.k_set_disjointness 3));
    ("setint2", lazy (Cq.Library.k_set_intersection 2));
    ("square", lazy Cq.Library.square);
    ("triangle", lazy Cq.Library.triangle_detect);
    ("edge-triangle", lazy Cq.Library.edge_triangle);
    ("hierarchical", lazy Cq.Library.hierarchical_binary);
  ]

let query_conv =
  let parse s =
    match List.assoc_opt s builtin_queries with
    | Some q -> Ok (Lazy.force q)
    | None ->
        Error (`Msg (Printf.sprintf "unknown query %s (try `stt queries')" s))
  in
  Arg.conv (parse, fun ppf q -> Cq.pp_cqap ppf q)

let query_arg =
  Arg.(
    required
    & opt (some query_conv) None
    & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Built-in query name.")

let rat_of_float f = Rat.of_float_approx ~max_den:64 f

(* counts that must be >= 1 (--jobs, --batch, ...): reject 0 and
   negatives at parse time with cmdliner's one-line error (exit 124)
   instead of surfacing an Invalid_argument backtrace later *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a positive integer" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is negative" s))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --json DIR: write a machine-readable artifact next to the printed
   output — the command's results plus the observability trace of the
   run (schema "stt-cli/1", see DESIGN.md). *)
let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"DIR"
        ~doc:
          "Write a machine-readable artifact STT_<command>.json (results \
           plus observability trace) into $(docv).")

let json_rat r = Json.String (Rat.to_string r)

let json_tradeoff (t : Tradeoff.t) =
  Json.Obj
    [
      ("s_exp", json_rat t.Tradeoff.s_exp);
      ("t_exp", json_rat t.Tradeoff.t_exp);
      ("d_exp", json_rat t.Tradeoff.d_exp);
      ("q_exp", json_rat t.Tradeoff.q_exp);
      ("pretty", Json.String (Format.asprintf "%a" Tradeoff.pp t));
    ]

(* [f] returns the command's data as JSON fields; without [--json] it
   runs with observability off and the data is discarded. *)
let with_artifact cmd json_dir f =
  match json_dir with
  | None -> ignore (f ())
  | Some dir ->
      if not (Sys.file_exists dir && Sys.is_directory dir) then (
        Format.eprintf "stt: --json %s: not a directory@." dir;
        exit 1);
      Obs.set_enabled true;
      Obs.reset ();
      let t0 = Mono.now_s () in
      let data = Fun.protect ~finally:(fun () -> Obs.set_enabled false) f in
      let wall = Mono.now_s () -. t0 in
      let doc =
        Json.Obj
          [
            ("schema", Json.String "stt-cli/1");
            ("command", Json.String cmd);
            ("wall_s", Json.Float wall);
            ("data", Json.Obj data);
            ("trace", Obs.trace ());
          ]
      in
      let path = Filename.concat dir ("STT_" ^ cmd ^ ".json") in
      Json.to_file path doc;
      Format.printf "artifact: %s@." path

let queries_cmd =
  let doc = "List built-in queries." in
  let run () =
    List.iter
      (fun (name, q) ->
        Format.printf "%-14s %a@." name Cq.pp_cqap (Lazy.force q))
      builtin_queries
  in
  Cmd.v (Cmd.info "queries" ~doc) Term.(const run $ const ())

let pmtds_cmd =
  let doc = "Enumerate the non-redundant, non-dominant PMTDs of a query." in
  let run q =
    let pmtds = Enum.pmtds ~max_pmtds:128 q in
    Format.printf "%d PMTDs:@." (List.length pmtds);
    List.iter (fun p -> Format.printf "  %a@." Pmtd.pp p) pmtds
  in
  Cmd.v (Cmd.info "pmtds" ~doc) Term.(const run $ query_arg)

let rules_cmd =
  let doc = "Generate the subset-minimal 2-phase disjunctive rules." in
  let run q =
    let rules = Rule.generate q (Enum.pmtds ~max_pmtds:128 q) in
    Format.printf "%d rules:@." (List.length rules);
    List.iteri (fun i r -> Format.printf "ρ%d: %a@." (i + 1) Rule.pp r) rules
  in
  Cmd.v (Cmd.info "rules" ~doc) Term.(const run $ query_arg)

let logs_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "logs" ] ~docv:"X"
        ~doc:"Space budget as log_D S; omitted = sweep a small grid.")

let logq_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "logq" ] ~docv:"X" ~doc:"Access-request size as log_D |Q_A|.")

let tradeoff_cmd =
  let doc = "Compute per-rule space-time tradeoffs (LP over joint flows)." in
  let run q logs logq json_dir =
    with_artifact "tradeoff" json_dir @@ fun () ->
    let rules = Rule.generate q (Enum.pmtds ~max_pmtds:128 q) in
    let dc = Degree.default_dc q.Cq.cq and ac = Degree.default_ac q in
    let logq = rat_of_float logq in
    let rows =
      match logs with
      | Some logs ->
          let logs = rat_of_float logs in
          List.mapi
            (fun i r ->
              Format.printf "ρ%d: %a@." (i + 1) Rule.pp r;
              let obj =
                match Jointflow.obj r ~dc ~ac ~logd:Rat.one ~logq ~logs with
                | { Jointflow.value = Jointflow.Stored; _ } ->
                    Format.printf "    stored outright: T = Õ(1)@.";
                    Json.Obj [ ("kind", Json.String "stored") ]
                | { Jointflow.value = Jointflow.Impossible; _ } ->
                    Format.printf "    not computable within this budget@.";
                    Json.Obj [ ("kind", Json.String "impossible") ]
                | { Jointflow.value = Jointflow.Time t; tradeoff; _ } ->
                    Format.printf "    log_D T = %a" Rat.pp t;
                    (match tradeoff with
                    | Some tr ->
                        Format.printf "   [%a]" Tradeoff.pp (Tradeoff.scaled tr)
                    | None -> ());
                    Format.printf "@.";
                    Json.Obj
                      (("kind", Json.String "time")
                      :: ("logt", json_rat t)
                      ::
                      (match tradeoff with
                      | Some tr ->
                          [ ("tradeoff", json_tradeoff (Tradeoff.scaled tr)) ]
                      | None -> []))
              in
              Json.Obj
                [
                  ("rule", Json.String (Format.asprintf "%a" Rule.pp r));
                  ("obj", obj);
                ])
            rules
      | None ->
          let grid = Tradeoff.grid ~lo:Rat.zero ~hi:(Rat.of_int 2) ~steps:8 in
          List.mapi
            (fun i r ->
              Format.printf "ρ%d: %a@." (i + 1) Rule.pp r;
              let ts =
                Jointflow.rule_tradeoffs r ~dc ~ac ~logq ~logs_grid:grid
              in
              List.iter (fun t -> Format.printf "    %a@." Tradeoff.pp t) ts;
              Json.Obj
                [
                  ("rule", Json.String (Format.asprintf "%a" Rule.pp r));
                  ("tradeoffs", Json.List (List.map json_tradeoff ts));
                ])
            rules
    in
    [ ("rules", Json.List rows) ]
  in
  Cmd.v (Cmd.info "tradeoff" ~doc)
    Term.(const run $ query_arg $ logs_arg $ logq_arg $ json_arg)

let steps_arg =
  Arg.(value & opt int 8 & info [ "steps" ] ~docv:"N" ~doc:"Grid resolution.")

let exact_arg =
  Arg.(
    value & flag
    & info [ "exact" ]
        ~doc:"Compute exact piecewise-linear breakpoints instead of sampling.")

let curve_cmd =
  let doc = "Combined tradeoff curve: worst rule at each budget." in
  let run q steps exact json_dir =
    with_artifact "curve" json_dir @@ fun () ->
    let rules = Rule.generate q (Enum.pmtds ~max_pmtds:128 q) in
    let dc = Degree.default_dc q.Cq.cq and ac = Degree.default_ac q in
    if exact then begin
      let curve =
        Curve.combined rules ~dc ~ac ~logq:Rat.zero ~lo:Rat.zero
          ~hi:(Rat.of_int 2)
      in
      Format.printf "@[<v>%a@]@." Curve.pp curve;
      [
        ( "segments",
          Json.List
            (List.map
               (fun (s : Curve.segment) ->
                 Json.Obj
                   [
                     ("lo", json_rat s.Curve.lo);
                     ("hi", json_rat s.Curve.hi);
                     ("lo_t", json_rat s.Curve.lo_t);
                     ("hi_t", json_rat s.Curve.hi_t);
                   ])
               curve) );
      ]
    end
    else
      let points =
        List.map
          (fun logs ->
            let t =
              List.fold_left
                (fun acc r ->
                  match Jointflow.logt r ~dc ~ac ~logq:Rat.zero ~logs with
                  | Some t -> Rat.max acc (Rat.max Rat.zero t)
                  | None -> acc)
                Rat.zero rules
            in
            Format.printf "log_D S = %-6s  log_D T = %s@." (Rat.to_string logs)
              (Rat.to_string t);
            Json.Obj [ ("logs", json_rat logs); ("logt", json_rat t) ])
          (Tradeoff.grid ~lo:Rat.zero ~hi:(Rat.of_int 2) ~steps)
      in
      [ ("points", Json.List points) ]
  in
  Cmd.v (Cmd.info "curve" ~doc)
    Term.(const run $ query_arg $ steps_arg $ exact_arg $ json_arg)

let budget_arg =
  Arg.(value & opt int 1000 & info [ "budget" ] ~docv:"N" ~doc:"Space budget in tuples.")

let edges_arg =
  Arg.(value & opt int 4000 & info [ "edges" ] ~docv:"N" ~doc:"Synthetic edge count.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let jobs_arg =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel build (default: $(b,STT_JOBS) or \
           the machine's recommended domain count).")

let set_jobs = Option.iter Stt_relation.Pool.set_jobs

let cache_budget_arg =
  Arg.(
    value & opt nonneg_int 0
    & info [ "cache-budget" ] ~docv:"N"
        ~doc:
          "Answer-cache budget in stored tuples, on top of the engine's \
           space budget ($(b,0) = no cache).  With $(b,--from-snapshot), \
           $(b,0) keeps any warm cache stored in the snapshot; a positive \
           value replaces it with a fresh cache of this budget.")

(* cache fields shared by the serve/serve-net artifacts: intrinsic space
   stays [space]; the cache reports its own occupancy and hit rate *)
let json_cache_stats idx =
  (* [total_space] = space + cache + aggregate tables, in every branch:
     the one number that tracks everything the engine holds *)
  let totals =
    [
      ("agg_space", Json.Int (Engine.agg_table_size idx));
      ("factorized_views", Json.Int (Engine.factorized_views idx));
      ("materialized_rows", Json.Int (Engine.materialized_rows idx));
      ("total_space", Json.Int (Engine.total_space idx));
    ]
  in
  match Engine.cache_stats idx with
  | None -> ("cache_budget", Json.Int 0) :: totals
  | Some (s : Stt_cache.Cache.stats) ->
      let lookups = s.hits + s.misses in
      [
        ("cache_budget", Json.Int s.budget);
        ("cache_space", Json.Int s.used);
        ("cache_entries", Json.Int s.entries);
        ("cache_hits", Json.Int s.hits);
        ("cache_misses", Json.Int s.misses);
        ("cache_evictions", Json.Int s.evictions);
        ("cache_factorized", Json.Int s.factorized);
        ( "cache_hit_rate",
          Json.Float
            (if lookups = 0 then 0.0
             else float_of_int s.hits /. float_of_int lookups) );
      ]
      @ totals

module Scenario = Stt_workload.Scenario

(* demo/serve/snapshot evaluate over the shared synthetic scenario
   ([Stt_workload.Scenario]): a Zipf graph bound to the single edge
   relation R.  Reject queries over anything else, naming the offender. *)
let require_single_edge_relation cmd q =
  match Scenario.single_edge_violation q with
  | None -> ()
  | Some rel ->
      Format.eprintf
        "stt %s: supports single-edge-relation queries only (atom over %S)@."
        cmd rel;
      exit 1

let demo_cmd =
  let doc =
    "Build an index over a synthetic Zipf graph and report measured \
     space and per-query cost."
  in
  let run q budget nedges seed jobs json_dir =
    with_artifact "demo" json_dir @@ fun () ->
    set_jobs jobs;
    let open Stt_relation in
    let vertices = Scenario.vertices_for_edges nedges in
    require_single_edge_relation "demo" q;
    let db = Scenario.synthetic_db ~seed ~vertices ~edges:nedges in
    Format.printf "building index (budget %d) over |E| = %d...@." budget
      (Db.size db);
    let idx = Engine.build_auto ~max_pmtds:128 q ~db ~budget in
    Format.printf "space: %d stored tuples@." (Engine.space idx);
    let rng = Stt_workload.Rng.create (seed + 1) in
    let arity = Varset.cardinal q.Cq.access in
    let total = ref 0 and worst = ref 0 and hits = ref 0 in
    let queries = 200 in
    for _ = 1 to queries do
      let tup = Array.init arity (fun _ -> Stt_workload.Rng.int rng vertices) in
      let hit, snap = Cost.measure (fun () -> Engine.answer_tuple idx tup) in
      if hit then incr hits;
      total := !total + Cost.total snap;
      worst := max !worst (Cost.total snap)
    done;
    Format.printf "%d queries: %d hits, avg %d ops, worst %d ops@." queries
      !hits (!total / queries) !worst;
    [
      ("budget", Json.Int budget);
      ("edges", Json.Int (Db.size db));
      ("space", Json.Int (Engine.space idx));
      ( "per_pmtd_space",
        Json.List
          (List.map
             (fun (p, s) ->
               Json.Obj
                 [
                   ("pmtd", Json.String (Format.asprintf "%a" Pmtd.pp p));
                   ("space", Json.Int s);
                 ])
             (Engine.per_pmtd_space idx)) );
      ( "answering_pmtds",
        Json.List
          (List.map
             (fun p -> Json.String (Format.asprintf "%a" Pmtd.pp p))
             (Engine.answering_pmtds idx)) );
      ("queries", Json.Int queries);
      ("hits", Json.Int !hits);
      ("avg_ops", Json.Int (!total / queries));
      ("worst_ops", Json.Int !worst);
    ]
  in
  Cmd.v (Cmd.info "demo" ~doc)
    Term.(
      const run $ query_arg $ budget_arg $ edges_arg $ seed_arg $ jobs_arg
      $ json_arg)

let requests_arg =
  Arg.(
    value & opt int 2000
    & info [ "requests" ] ~docv:"N" ~doc:"Access requests to serve.")

let batch_arg =
  Arg.(
    value & opt pos_int 64
    & info [ "batch" ] ~docv:"N"
        ~doc:"Requests per batch handed to $(b,answer_batch) (1 = unbatched).")

let skew_arg =
  Arg.(
    value & opt float 1.5
    & info [ "skew" ] ~docv:"S"
        ~doc:
          "Zipf exponent of the request stream (hot-key serving; the graph \
           itself stays at 1.1).")

let chunks k xs =
  let rec take n acc = function
    | x :: tl when n > 0 -> take (n - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> []
    | xs ->
        let b, rest = take k [] xs in
        b :: go rest
  in
  go xs

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let serve_query_arg =
  Arg.(
    value
    & opt (some query_conv) None
    & info [ "q"; "query" ] ~docv:"QUERY"
        ~doc:"Built-in query name (not needed with $(b,--from-snapshot)).")

let from_snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from-snapshot" ] ~docv:"FILE"
        ~doc:
          "Serve from a saved snapshot instead of building: load $(docv) and \
           skip the query and the preprocessing entirely.  Pass the same \
           $(b,--edges) as at snapshot time so the request stream samples \
           the same vertex range.")

let serve_cmd =
  let doc =
    "Serve a Zipf stream of single-tuple access requests in batches and \
     report throughput (answers/sec) and latency percentiles."
  in
  let run q budget nedges seed requests batch skew cache_budget jobs snapshot
      json_dir =
    with_artifact "serve" json_dir @@ fun () ->
    set_jobs jobs;
    let open Stt_relation in
    let vertices = Scenario.vertices_for_edges nedges in
    let idx, build_wall, origin =
      match snapshot with
      | Some path -> (
          let t0 = Mono.now_s () in
          match Engine.load path with
          | Ok idx ->
              let wall = Mono.now_s () -. t0 in
              Format.printf
                "loaded snapshot %s: space %d stored tuples (in %.3fs)@." path
                (Engine.space idx) wall;
              (idx, wall, "snapshot")
          | Error e ->
              Format.eprintf "stt serve: %s: %s@." path
                (Stt_store.Store.error_to_string e);
              exit 1)
      | None ->
          let q =
            match q with
            | Some q -> q
            | None ->
                Format.eprintf
                  "stt serve: a query is required unless --from-snapshot is \
                   given@.";
                exit 1
          in
          require_single_edge_relation "serve" q;
          let db = Scenario.synthetic_db ~seed ~vertices ~edges:nedges in
          Format.printf "building index (budget %d, jobs %d) over |E| = %d...@."
            budget (Pool.jobs ()) (Db.size db);
          let tb0 = Mono.now_s () in
          let idx = Engine.build_auto ~max_pmtds:128 q ~db ~budget in
          let wall = Mono.now_s () -. tb0 in
          Format.printf "space: %d stored tuples (built in %.3fs)@."
            (Engine.space idx) wall;
          (idx, wall, "build")
    in
    if cache_budget > 0 then begin
      Engine.attach_cache idx ~budget:cache_budget;
      Format.printf "answer cache: %d stored tuples budget@." cache_budget
    end;
    (* Zipf-skewed request stream: hub vertices recur, so batches carry
       duplicates — exactly the sharing [answer_batch] exploits *)
    let acc_schema = Engine.access_schema idx in
    let arity = Schema.arity acc_schema in
    let reqs =
      List.map
        (Relation.singleton acc_schema)
        (Scenario.zipf_requests ~seed:(seed + 1) ~n:vertices ~requests ~skew
           ~arity)
    in
    let batch = max 1 batch in
    let walls = ref [] and total_ops = ref 0 and hits = ref 0 in
    let t0 = Mono.now_s () in
    List.iter
      (fun group ->
        let w0 = Mono.now_s () in
        let answers = Engine.answer_batch idx group in
        walls := (Mono.now_s () -. w0) :: !walls;
        List.iter
          (fun (r, c) ->
            if not (Relation.is_empty r) then incr hits;
            total_ops := !total_ops + Cost.total c)
          answers)
      (chunks batch reqs);
    let wall = Mono.now_s () -. t0 in
    let throughput = float_of_int requests /. wall in
    let sorted = Array.of_list !walls in
    Array.sort compare sorted;
    Format.printf
      "%d requests in %d-batches: %.0f answers/sec, %d hits, avg %d ops@."
      requests batch throughput !hits
      (!total_ops / requests);
    Format.printf "batch wall p50 %.4fs  p95 %.4fs  max %.4fs@."
      (percentile sorted 0.50) (percentile sorted 0.95) (percentile sorted 1.0);
    [
      ("budget", Json.Int budget);
      ("edges", Json.Int nedges);
      ("origin", Json.String origin);
      ("space", Json.Int (Engine.space idx));
      ("jobs", Json.Int (Pool.jobs ()));
      ("build_wall_s", Json.Float build_wall);
      ("requests", Json.Int requests);
      ("batch", Json.Int batch);
      ("skew", Json.Float skew);
      ("hits", Json.Int !hits);
      ("total_ops", Json.Int !total_ops);
      ("wall_s", Json.Float wall);
      ("answers_per_sec", Json.Float throughput);
      ("batch_wall_p50_s", Json.Float (percentile sorted 0.50));
      ("batch_wall_p95_s", Json.Float (percentile sorted 0.95));
      ("batch_wall_max_s", Json.Float (percentile sorted 1.0));
    ]
    @ json_cache_stats idx
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ serve_query_arg $ budget_arg $ edges_arg $ seed_arg
      $ requests_arg $ batch_arg $ skew_arg $ cache_budget_arg $ jobs_arg
      $ from_snapshot_arg $ json_arg)

let out_arg =
  Arg.(
    value & opt string "stt.snap"
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Snapshot output path.")

let snapshot_cmd =
  let doc =
    "Build an index over a synthetic Zipf graph and save it as a versioned, \
     checksummed binary snapshot for $(b,stt serve --from-snapshot)."
  in
  let run q budget nedges seed cache_budget jobs out json_dir =
    with_artifact "snapshot" json_dir @@ fun () ->
    set_jobs jobs;
    let open Stt_relation in
    let vertices = Scenario.vertices_for_edges nedges in
    require_single_edge_relation "snapshot" q;
    let db = Scenario.synthetic_db ~seed ~vertices ~edges:nedges in
    Format.printf "building index (budget %d, jobs %d) over |E| = %d...@."
      budget (Pool.jobs ()) (Db.size db);
    let tb0 = Mono.now_s () in
    let idx = Engine.build_auto ~max_pmtds:128 q ~db ~budget in
    let build_wall = Mono.now_s () -. tb0 in
    Format.printf "space: %d stored tuples (built in %.3fs)@."
      (Engine.space idx) build_wall;
    (* an attached (empty) cache is persisted with the snapshot, so a
       server loading it starts caching without any flag of its own *)
    if cache_budget > 0 then
      Engine.attach_cache idx ~budget:cache_budget;
    let ts0 = Mono.now_s () in
    match Engine.save idx out with
    | Error e ->
        Format.eprintf "stt snapshot: %s: %s@." out
          (Stt_store.Store.error_to_string e);
        exit 1
    | Ok bytes ->
        let save_wall = Mono.now_s () -. ts0 in
        Format.printf "snapshot: %s, %d bytes (saved in %.3fs)@." out bytes
          save_wall;
        [
          ("budget", Json.Int budget);
          ("edges", Json.Int (Db.size db));
          ("space", Json.Int (Engine.space idx));
          ("jobs", Json.Int (Pool.jobs ()));
          ("build_wall_s", Json.Float build_wall);
          ("save_wall_s", Json.Float save_wall);
          ("snapshot", Json.String out);
          ("snapshot_bytes", Json.Int bytes);
          ("cache_budget", Json.Int cache_budget);
        ]
  in
  Cmd.v (Cmd.info "snapshot" ~doc)
    Term.(
      const run $ query_arg $ budget_arg $ edges_arg $ seed_arg
      $ cache_budget_arg $ jobs_arg $ out_arg $ json_arg)

let port_arg =
  Arg.(
    value & opt nonneg_int 7421
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port ($(b,0) picks an ephemeral one).")

let serve_agg_budget_arg =
  Arg.(
    value & opt nonneg_int 0
    & info [ "agg-budget" ] ~docv:"N"
        ~doc:
          "Enable semiring aggregates (COUNT/SUM/MIN/MAX) with at most \
           $(docv) precomputed table entries per kind; $(b,0) leaves \
           aggregates off.  Snapshots built with aggregates enabled serve \
           them regardless of this flag.")

let queue_arg =
  Arg.(
    value & opt pos_int 128
    & info [ "queue" ] ~docv:"N"
        ~doc:"Job-queue capacity; a full queue sheds requests as OVERLOADED.")

let io_backend_arg =
  let parse s =
    match s with
    | "auto" -> Ok None
    | _ -> (
        match Stt_net.Evloop.backend_of_string s with
        | Some b -> Ok (Some b)
        | None ->
            Error (`Msg (Printf.sprintf "unknown IO backend %S" s)))
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "auto"
    | Some b ->
        Format.pp_print_string ppf (Stt_net.Evloop.backend_name b)
  in
  Arg.(
    value
    & opt (conv (parse, print)) None
    & info [ "io-backend" ] ~docv:"BACKEND"
        ~doc:
          "IO readiness backend: $(b,epoll) (Linux, edge-triggered), \
           $(b,select) (portable), or $(b,auto) (fastest available).")

let serve_net_cmd =
  let doc =
    "Serve access requests over TCP: worker domains behind a bounded job \
     queue, per-request deadlines, graceful SIGTERM/SIGINT drain."
  in
  let run q budget nedges seed cache_budget jobs snapshot agg_budget port queue
      io_backend json_dir =
    with_artifact "serve-net" json_dir @@ fun () ->
    set_jobs jobs;
    let open Stt_net in
    let idx, origin =
      match snapshot with
      | Some path -> (
          match Engine.load path with
          | Ok idx ->
              Format.printf "loaded snapshot %s: space %d stored tuples@." path
                (Engine.space idx);
              (idx, "snapshot")
          | Error e ->
              Format.eprintf "stt serve-net: %s: %s@." path
                (Stt_store.Store.error_to_string e);
              exit 1)
      | None ->
          let q =
            match q with
            | Some q -> q
            | None ->
                Format.eprintf
                  "stt serve-net: a query is required unless --from-snapshot \
                   is given@.";
                exit 1
          in
          require_single_edge_relation "serve-net" q;
          let vertices = Scenario.vertices_for_edges nedges in
          let db = Scenario.synthetic_db ~seed ~vertices ~edges:nedges in
          Format.printf "building index (budget %d, jobs %d) over |E| = %d...@."
            budget
            (Stt_relation.Pool.jobs ())
            (Db.size db);
          let idx = Engine.build_auto ~max_pmtds:128 q ~db ~budget in
          Format.printf "space: %d stored tuples@." (Engine.space idx);
          if agg_budget > 0 then
            Engine.enable_agg idx ~db ~budget:agg_budget;
          (idx, "build")
    in
    if Engine.agg_enabled idx then
      Format.printf "aggregates: %s (budget %d, %d table entries)@."
        (String.concat ","
           (List.map Stt_semiring.Semiring.name (Engine.agg_kinds idx)))
        (Engine.agg_budget idx)
        (Engine.agg_table_size idx);
    if cache_budget > 0 then begin
      Engine.attach_cache idx ~budget:cache_budget;
      Format.printf "answer cache: %d stored tuples budget@." cache_budget
    end;
    let workers = Stt_relation.Pool.jobs () in
    let server =
      Server.start ~port ~workers ~queue_capacity:queue
        ~space:(fun () -> Engine.space idx)
        ~agg_space:(fun () -> Engine.agg_table_size idx)
        ~cache_info:(Server.engine_cache_info idx)
        ?update_handler:
          (if Engine.supports_maintenance idx then
             Some (Server.engine_update_handler idx)
           else None)
        ?agg_handler:
          (if Engine.agg_enabled idx then
             Some (Server.engine_agg_handler idx)
           else None)
        ?io_backend
        (Server.engine_handler idx)
    in
    Format.printf "serving on 127.0.0.1:%d (%d workers, queue %d, io %s)@."
      (Server.port server) workers queue (Server.io_backend server);
    Format.printf "SIGTERM or Ctrl-C drains in-flight requests and exits@.";
    Format.print_flush ();
    let drain = Sys.Signal_handle (fun _ -> Server.stop server) in
    Sys.set_signal Sys.sigterm drain;
    Sys.set_signal Sys.sigint drain;
    while not (Server.stopping server) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    let st = Server.wait server in
    Format.printf
      "drained: %d connections, %d received, %d answered, %d updated, %d \
       shed, %d past deadline, %d bad requests@."
      st.Server.connections st.Server.received st.Server.answered
      st.Server.updated st.Server.rejected_overload st.Server.rejected_deadline
      st.Server.bad_requests;
    let server_trace =
      match Json.of_string (Server.trace_json server) with
      | Ok j -> j
      | Error _ -> Json.Null
    in
    [
      ("origin", Json.String origin);
      ("space", Json.Int (Engine.space idx));
      ("port", Json.Int (Server.port server));
      ("workers", Json.Int workers);
      ("queue", Json.Int queue);
      ("io_backend", Json.String (Server.io_backend server));
      ("connections", Json.Int st.Server.connections);
      ("received", Json.Int st.Server.received);
      ("answered", Json.Int st.Server.answered);
      ("updated", Json.Int st.Server.updated);
      ("rejected_overload", Json.Int st.Server.rejected_overload);
      ("rejected_deadline", Json.Int st.Server.rejected_deadline);
      ("bad_requests", Json.Int st.Server.bad_requests);
      ("agg_enabled", Json.Bool (Engine.agg_enabled idx));
      ("agg_table_size", Json.Int (Engine.agg_table_size idx));
      ("server_trace", server_trace);
    ]
    @ json_cache_stats idx
  in
  Cmd.v (Cmd.info "serve-net" ~doc)
    Term.(
      const run $ serve_query_arg $ budget_arg $ edges_arg $ seed_arg
      $ cache_budget_arg $ jobs_arg $ from_snapshot_arg $ serve_agg_budget_arg
      $ port_arg $ queue_arg $ io_backend_arg $ json_arg)

(* ---------------------------------------------------------------- *)
(* route: the sharded tier's router process                           *)
(* ---------------------------------------------------------------- *)

let shard_endpoint_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf
             "shard %S: expected [NAME=]HOST:PORT (e.g. shard-0=127.0.0.1:7421)"
             s))
    in
    let name, addr =
      match String.index_opt s '=' with
      | Some i ->
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | None -> (s, s)
    in
    match String.rindex_opt addr ':' with
    | None -> fail ()
    | Some i -> (
        let host = String.sub addr 0 i in
        let port_s = String.sub addr (i + 1) (String.length addr - i - 1) in
        match int_of_string_opt port_s with
        | Some p when p > 0 && p < 65536 && name <> "" && host <> "" ->
            Ok { Stt_shard.Router.name; host; port = p }
        | _ -> fail ())
  in
  let print ppf (ep : Stt_shard.Router.endpoint) =
    Format.fprintf ppf "%s=%s:%d" ep.name ep.host ep.port
  in
  Arg.conv (parse, print)

let shard_endpoints_arg =
  Arg.(
    non_empty
    & opt_all shard_endpoint_conv []
    & info [ "shard" ] ~docv:"[NAME=]HOST:PORT"
        ~doc:
          "A replica to route to (repeatable).  NAME identifies the shard \
           on the consistent-hash ring; it defaults to HOST:PORT.")

let route_cmd =
  let doc =
    "Route access requests across replica shards: a consistent-hash ring \
     over canonical bound-variable keys, scatter/gather with mid-batch \
     failover, and fleet-aggregated protocol-v5 Health."
  in
  let run endpoints port queue jobs io_backend json_dir =
    with_artifact "route" json_dir @@ fun () ->
    set_jobs jobs;
    let module Router = Stt_shard.Router in
    let workers = Stt_relation.Pool.jobs () in
    let router =
      Router.start ~port ~workers ~queue_capacity:queue ?io_backend endpoints
    in
    Format.printf "routing on 127.0.0.1:%d (%d shards, %d workers, queue %d, io %s)@."
      (Router.port router)
      (List.length (Router.shards router))
      workers queue
      (Router.io_backend router);
    List.iter
      (fun (ep : Router.endpoint) ->
        Format.printf "  shard %s -> %s:%d@." ep.name ep.host ep.port)
      endpoints;
    Format.printf "SIGTERM or Ctrl-C drains in-flight requests and exits@.";
    Format.print_flush ();
    let drain = Sys.Signal_handle (fun _ -> Router.stop router) in
    Sys.set_signal Sys.sigterm drain;
    Sys.set_signal Sys.sigint drain;
    while not (Router.stopping router) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    let st = Router.wait router in
    Format.printf
      "drained: %d connections, %d received, %d answered, %d shed, %d past \
       deadline, %d bad requests, %d shard errors, %d tuples re-routed, %d \
       shard restarts@."
      st.Stt_net.Core.connections st.Stt_net.Core.received
      st.Stt_net.Core.answered st.Stt_net.Core.rejected_overload
      st.Stt_net.Core.rejected_deadline st.Stt_net.Core.bad_requests
      (Router.shard_errors router)
      (Router.retried_tuples router)
      (Router.restarts router);
    let router_trace =
      match Json.of_string (Router.trace_json router) with
      | Ok j -> j
      | Error _ -> Json.Null
    in
    [
      ("port", Json.Int (Router.port router));
      ("workers", Json.Int workers);
      ("queue", Json.Int queue);
      ("io_backend", Json.String (Router.io_backend router));
      ( "shards",
        Json.List
          (List.map
             (fun (ep : Router.endpoint) ->
               Json.Obj
                 [
                   ("name", Json.String ep.name);
                   ("host", Json.String ep.host);
                   ("port", Json.Int ep.port);
                 ])
             endpoints) );
      ("connections", Json.Int st.Stt_net.Core.connections);
      ("received", Json.Int st.Stt_net.Core.received);
      ("answered", Json.Int st.Stt_net.Core.answered);
      ("rejected_overload", Json.Int st.Stt_net.Core.rejected_overload);
      ("rejected_deadline", Json.Int st.Stt_net.Core.rejected_deadline);
      ("bad_requests", Json.Int st.Stt_net.Core.bad_requests);
      ("shard_errors", Json.Int (Router.shard_errors router));
      ("retried_tuples", Json.Int (Router.retried_tuples router));
      ("shard_restarts", Json.Int (Router.restarts router));
      ("router_trace", router_trace);
    ]
  in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const run $ shard_endpoints_arg $ port_arg $ queue_arg $ jobs_arg
      $ io_backend_arg $ json_arg)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Server host to connect to.")

let connections_arg =
  Arg.(
    value & opt pos_int 8
    & info [ "connections" ] ~docv:"N"
        ~doc:"Concurrent client connections, multiplexed over the drivers.")

let drivers_arg =
  Arg.(
    value & opt pos_int 8
    & info [ "drivers" ] ~docv:"N"
        ~doc:
          "Load-generating domains; each drives its share of the \
           connections in lockstep rounds (clamped to the connection \
           count).")

let net_requests_arg =
  Arg.(
    value & opt pos_int 10000
    & info [ "requests" ] ~docv:"N"
        ~doc:"Total access tuples across all connections.")

let active_arg =
  Arg.(
    value & opt nonneg_int 0
    & info [ "active" ] ~docv:"N"
        ~doc:
          "Connections that drive requests ($(b,0) = all).  The rest \
           connect and park idle for the whole run — the idle-keepalive \
           fleet that separates an O(watched)-per-wakeup readiness \
           backend from an edge-triggered one.")

let net_batch_arg =
  Arg.(
    value & opt pos_int 16
    & info [ "batch" ] ~docv:"N" ~doc:"Access tuples per request frame.")

let deadline_ms_arg =
  Arg.(
    value & opt nonneg_int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Per-request serving budget in milliseconds ($(b,0) = none).")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Build a local index over the same synthetic graph and check every \
           answered tuple's rows against a direct $(b,answer_batch) — \
           mismatches fail the run.")

let bench_artifact_arg =
  Arg.(
    value & opt string "BENCH_emp-net.json"
    & info [ "artifact" ] ~docv:"FILE"
        ~doc:"Benchmark artifact output path (schema $(b,stt-bench/1)).")

let speedup_vs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "speedup-vs" ] ~docv:"FILE"
        ~doc:
          "Prior bench-net artifact to compare against (e.g. the same \
           workload served through the $(b,select) backend): its \
           answers/sec and the speedup ratio are recorded in this run's \
           artifact as $(b,baseline_answers_per_sec) and \
           $(b,backend_speedup).")

let shards_arg =
  Arg.(
    value & opt nonneg_int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Self-hosted sharded mode: build the index once, snapshot it, \
           spawn $(docv) replica processes booted from shipped copies of \
           that snapshot, and drive the load through an in-process \
           consistent-hash router.  $(b,0) (the default) benches directly \
           against --host/--port.")

let shard_jobs_arg =
  Arg.(
    value & opt pos_int 2
    & info [ "shard-jobs" ] ~docv:"N"
        ~doc:"Worker domains per replica process (sharded mode).")

let router_jobs_arg =
  Arg.(
    value & opt pos_int 8
    & info [ "router-jobs" ] ~docv:"N"
        ~doc:
          "Router worker domains, bounding concurrent scatter/gather \
           rounds (sharded mode).")

let drain_after_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "drain-after" ] ~docv:"S"
        ~doc:
          "Sharded mode: after $(docv) seconds of load, drain the \
           highest-numbered shard live — ring removal, then SIGTERM — \
           so in-flight tuples re-route to the surviving owners.  The \
           zero-loss gate still applies.")

let agg_arg =
  let parse s =
    match Stt_semiring.Semiring.of_name s with
    | Some k -> Ok (Some k)
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown aggregate %S (expected count, sum, min or max)" s))
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "none"
    | Some k -> Format.pp_print_string ppf (Stt_semiring.Semiring.name k)
  in
  Arg.(
    value
    & opt (conv (parse, print)) None
    & info [ "agg" ] ~docv:"KIND"
        ~doc:
          "Aggregate workload: drive $(docv) (count, sum, min or max) \
           aggregate frames instead of tuple requests, and check every \
           reply against a direct local $(b,answer_agg) over the same \
           synthetic data — any disagreement fails the run.  With \
           $(b,--shards N) the fleet snapshot ships the aggregate tables \
           and replies are router-merged partials.")

let rec json_of_health (h : Stt_net.Frame.health) =
  let ch = h.Stt_net.Frame.cache in
  Json.Obj
    [
      ("ready", Json.Bool h.Stt_net.Frame.ready);
      ("space", Json.Int h.Stt_net.Frame.space);
      ("agg_space", Json.Int h.Stt_net.Frame.agg_space);
      ( "total_space",
        Json.Int
          (h.Stt_net.Frame.space + h.Stt_net.Frame.agg_space
         + h.Stt_net.Frame.cache.Stt_net.Frame.cache_used) );
      ("workers", Json.Int h.Stt_net.Frame.workers);
      ("queue_capacity", Json.Int h.Stt_net.Frame.queue_capacity);
      ("queue_depth", Json.Int h.Stt_net.Frame.queue_depth);
      ("uptime_ns", Json.Int h.Stt_net.Frame.uptime_ns);
      ("io_backend", Json.String h.Stt_net.Frame.io_backend);
      ( "cache",
        Json.Obj
          [
            ("budget", Json.Int ch.Stt_net.Frame.cache_budget);
            ("used", Json.Int ch.Stt_net.Frame.cache_used);
            ("entries", Json.Int ch.Stt_net.Frame.cache_entries);
            ("hits", Json.Int ch.Stt_net.Frame.cache_hits);
            ("misses", Json.Int ch.Stt_net.Frame.cache_misses);
          ] );
      ( "shards",
        Json.List
          (List.map
             (fun (name, sub) ->
               Json.Obj
                 [ ("name", Json.String name); ("health", json_of_health sub) ])
             h.Stt_net.Frame.shards) );
    ]

let bench_net_cmd =
  let doc =
    "Closed-loop Zipf load generator against $(b,stt serve-net) — or, with \
     $(b,--shards N), against a self-hosted fleet of snapshot-shipped \
     replicas behind a consistent-hash router: reports answers/sec and \
     p50/p95/p99 latency, with zero-loss accounting."
  in
  let run q budget nedges seed host port connections drivers active requests
      batch skew cache_budget deadline_ms verify artifact speedup_vs shards
      shard_jobs router_jobs drain_after agg io_backend =
    require_single_edge_relation "bench-net" q;
    let open Stt_net in
    let sharded = shards > 0 in
    (* the sharded and aggregate experiments get their own artifact
       lineages *)
    let artifact =
      if artifact = "BENCH_emp-net.json" then
        match agg with
        | Some _ -> "BENCH_agg-net.json"
        | None -> if sharded then "BENCH_emp-shard.json" else artifact
      else artifact
    in
    (* resolve the comparison artifact up front, so a bad path fails
       before the minutes-long load runs *)
    let baseline =
      match speedup_vs with
      | None -> None
      | Some file -> (
          let fail msg =
            Format.eprintf "stt bench-net: --speedup-vs %s: %s@." file msg;
            exit 1
          in
          match
            In_channel.with_open_text file In_channel.input_all
            |> Json.of_string
          with
          | exception Sys_error e -> fail e
          | Error e -> fail e
          | Ok doc -> (
              let data = Json.member "data" doc in
              match Option.bind data (Json.member "answers_per_sec") with
              | Some (Json.Float f) when f > 0.0 ->
                  let backend =
                    match Option.bind data (Json.member "io_backend") with
                    | Some (Json.String s) -> s
                    | _ -> "unknown"
                  in
                  Some (file, backend, f)
              | _ -> fail "no positive .data.answers_per_sec"))
    in
    let vertices = Scenario.vertices_for_edges nedges in
    let arity = Varset.cardinal q.Cq.access in
    (* one local build serves both the snapshot the fleet boots from and
       the --verify reference — deliberately uncached either way: the
       reference answers come from the direct answer_batch, and replicas
       attach their own caches per --cache-budget *)
    let built = Hashtbl.create 2 in
    let build_index b =
      match Hashtbl.find_opt built b with
      | Some idx -> idx
      | None ->
          let db = Scenario.synthetic_db ~seed ~vertices ~edges:nedges in
          Format.printf "building index (budget %d) over |E| = %d...@." b
            (Db.size db);
          Format.print_flush ();
          let idx = Engine.build_auto ~max_pmtds:128 q ~db ~budget:b in
          Hashtbl.replace built b idx;
          idx
    in
    (* aggregate mode needs semiring state on the benched index: in
       sharded mode it must be there before the snapshot is saved (that
       is how the replicas get it), and either way the same index serves
       as the direct-evaluation reference.  The db is rebuilt from the
       same seed, which yields the identical edge set. *)
    let ensure_agg idx =
      if not (Engine.agg_enabled idx) then begin
        let db = Scenario.synthetic_db ~seed ~vertices ~edges:nedges in
        Engine.enable_agg idx ~db ~budget
      end
    in
    let verify_fn =
      match agg with
      | Some k ->
          (* aggregate runs always check, against a direct local
             answer_agg read back as its one scalar row.  Aggregates are
             invariant under the table budget as answers are under the
             space budget, so the reference gets complete tables of its
             own: a check is a table lookup, which keeps it from
             competing with the load for the same cores *)
          let db = Scenario.synthetic_db ~seed ~vertices ~edges:nedges in
          let reference = Engine.build_auto ~max_pmtds:128 q ~db ~budget in
          Engine.enable_agg ~kinds:[ k ] reference ~db ~budget:max_int;
          let schema = Engine.access_schema reference in
          Some
            (fun ~arity:_ tuples ->
              let q_a = Stt_relation.Relation.of_list schema tuples in
              [ [ [| fst (Engine.answer_agg reference k ~q_a) |] ] ])
      | None when not verify -> None
      | None ->
          (* answers are invariant under the space budget — only the
             serving cost moves along the tradeoff curve — so in sharded
             mode the reference index gets a generous budget:
             verification then runs near lookup speed in this process
             instead of competing with the fleet for the same cores at
             the benched (tight) budget *)
          let vb = if sharded then max budget 8000 else budget in
          let h = Server.engine_handler (build_index vb) in
          Some
            (fun ~arity tuples ->
              List.map (fun (rows, _, _) -> rows) (h ~arity tuples))
    in
    (* sharded mode self-hosts the serving side: snapshot -> ship to N
       replica processes -> route through an in-process router, and the
       load below targets the router instead of --host/--port *)
    let queue_capacity_for_fleet = 256 in
    let fleet_ctx =
      if not sharded then None
      else begin
        let module Fleet = Stt_shard.Fleet in
        let module Router = Stt_shard.Router in
        let idx = build_index budget in
        if agg <> None then ensure_agg idx;
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "stt-shard-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir dir 0o700
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let snap = Filename.concat dir "bench.snap" in
        (match Engine.save idx snap with
        | Ok n -> Format.printf "snapshot: %s (%d bytes)@." snap n
        | Error e ->
            Format.eprintf "stt bench-net: saving snapshot: %s@."
              (Stt_store.Store.error_to_string e);
            exit 1);
        Format.printf "spawning %d replicas (%d workers each, queue %d)...@."
          shards shard_jobs queue_capacity_for_fleet;
        Format.print_flush ();
        let fleet =
          match
            Fleet.launch ~exe:Sys.executable_name ~snapshot:snap ~dir
              ~count:shards ~workers:shard_jobs
              ~queue:queue_capacity_for_fleet ~cache_budget
              ?io_backend:(Option.map Evloop.backend_name io_backend)
              ()
          with
          | Ok f -> f
          | Error msg ->
              Format.eprintf "stt bench-net: %s@." msg;
              exit 1
        in
        let eps = Fleet.endpoints fleet in
        List.iter
          (fun (ep : Router.endpoint) ->
            Format.printf "  %s on %s:%d@." ep.name ep.host ep.port)
          eps;
        let router =
          Router.start ~port:0 ~workers:router_jobs
            ~queue_capacity:queue_capacity_for_fleet ?io_backend eps
        in
        Format.printf "router on 127.0.0.1:%d (%d workers)@."
          (Router.port router) router_jobs;
        Format.print_flush ();
        Some (router, fleet, dir)
      end
    in
    let host, port =
      match fleet_ctx with
      | Some (router, _, _) -> ("127.0.0.1", Stt_shard.Router.port router)
      | None -> (host, port)
    in
    let teardown () =
      match fleet_ctx with
      | None -> ()
      | Some (router, fleet, dir) ->
          Stt_shard.Router.stop router;
          ignore (Stt_shard.Router.wait router);
          Stt_shard.Fleet.shutdown fleet;
          (try
             Array.iter
               (fun f ->
                 try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
               (Sys.readdir dir)
           with Sys_error _ -> ());
          (try Unix.rmdir dir with Unix.Unix_error _ -> ())
    in
    let drained = ref None in
    let run_over = Atomic.make false in
    let drain_domain =
      match (fleet_ctx, drain_after) with
      | Some (router, fleet, _), Some s when shards > 1 ->
          Some
            (Domain.spawn (fun () ->
                 (* sleep in slices so a --drain-after beyond the run's
                    length doesn't leave this domain blocking the join *)
                 let deadline = Mono.now_s () +. s in
                 while
                   (not (Atomic.get run_over))
                   && Mono.now_s () < deadline
                 do
                   Unix.sleepf 0.05
                 done;
                 if not (Atomic.get run_over) then begin
                   let name = Printf.sprintf "shard-%d" (shards - 1) in
                   Stt_shard.Router.drain_shard router name;
                   if Stt_shard.Fleet.drain fleet name then drained := Some name
                 end))
      | _ -> None
    in
    let join_drain () =
      Atomic.set run_over true;
      Option.iter Domain.join drain_domain
    in
    Obs.set_enabled true;
    Obs.reset ();
    let cfg =
      {
        Loadgen.host;
        port;
        connections;
        requests;
        batch;
        arity;
        values = vertices;
        skew;
        seed = seed + 1;
        deadline_ms;
        drivers;
        active;
        kind =
          (match agg with Some k -> Stt_semiring.Semiring.to_tag k | None -> 0);
      }
    in
    let driven = if active = 0 then connections else active in
    Format.printf
      "%d connections (%d driven, %d parked) x closed loop (%d drivers), %d \
       requests in %d-batches%s@."
      connections driven
      (connections - driven)
      (min drivers driven) requests batch
      (match agg with
      | Some k ->
          Printf.sprintf ", one %s aggregate per batch"
            (Stt_semiring.Semiring.name k)
      | None -> "");
    let t0 = Mono.now_s () in
    match Loadgen.run ?verify:verify_fn cfg with
    | Error msg ->
        join_drain ();
        teardown ();
        Format.eprintf "stt bench-net: %s@." msg;
        exit 1
    | Ok r ->
        let wall = Mono.now_s () -. t0 in
        join_drain ();
        (* one extra connection after the run: the server's Health frame
           carries its cache occupancy and hit counts, so the artifact
           records the hit rate this load actually achieved *)
        let server_health =
          match Client.connect ~host ~port () with
          | Error _ -> None
          | Ok c ->
              let resp = Client.rpc c (Frame.Health { id = 0 }) in
              Client.close c;
              (match resp with
              | Ok (Frame.Health_reply { health; _ }) -> Some health
              | Ok _ | Error _ -> None)
        in
        let server_cache =
          Option.map (fun h -> h.Frame.cache) server_health
        in
        let server_io_backend =
          match server_health with
          | Some h -> h.Frame.io_backend
          | None -> "unknown"
        in
        (* in sharded mode the fleet health sums cache budgets across
           shards, so the per-server comparison below does not apply *)
        (match server_cache with
        | Some ch when (not sharded) && ch.Frame.cache_budget <> cache_budget
          ->
            Format.printf
              "note: server cache budget %d differs from --cache-budget %d@."
              ch.Frame.cache_budget cache_budget
        | _ -> ());
        let shard_fields =
          match fleet_ctx with
          | None -> []
          | Some (router, _, _) ->
              (match !drained with
              | Some name ->
                  Format.printf
                    "drained %s mid-run: %d tuples re-routed, %d shard \
                     errors@."
                    name
                    (Stt_shard.Router.retried_tuples router)
                    (Stt_shard.Router.shard_errors router)
              | None -> ());
              [
                ("shards", Json.Int shards);
                ("shard_jobs", Json.Int shard_jobs);
                ("router_jobs", Json.Int router_jobs);
                ( "drained_shard",
                  match !drained with
                  | Some n -> Json.String n
                  | None -> Json.Null );
                ( "shard_errors",
                  Json.Int (Stt_shard.Router.shard_errors router) );
                ( "retried_tuples",
                  Json.Int (Stt_shard.Router.retried_tuples router) );
                ("shard_restarts", Json.Int (Stt_shard.Router.restarts router));
                ( "fleet_health",
                  match server_health with
                  | Some h -> json_of_health h
                  | None -> Json.Null );
              ]
        in
        teardown ();
        let clean, experiment, data =
          match agg with
          | Some k ->
              (* one request per Agg frame: [sent] counts frames and
                 [tuples] the access tuples they carried *)
              let errors = r.Loadgen.sent - r.Loadgen.answered in
              let benched = build_index budget in
              ensure_agg benched;
              let identical =
                r.Loadgen.answered > 0 && errors = 0
                && r.Loadgen.duplicated = 0 && r.Loadgen.mismatched = 0
              in
              Format.printf
                "%d tuples in %d frames: %d answered, %d errors, %d \
                 mismatched (identical_answers=%b)@."
                r.Loadgen.tuples r.Loadgen.sent r.Loadgen.answered errors
                r.Loadgen.mismatched identical;
              Format.printf
                "%.0f aggregates/sec   rtt p50 %.0fus  p95 %.0fus  p99 \
                 %.0fus@."
                r.Loadgen.throughput r.Loadgen.p50_us r.Loadgen.p95_us
                r.Loadgen.p99_us;
              ( identical,
                "agg-net",
                [
                  ("host", Json.String host);
                  ("port", Json.Int port);
                  ("agg", Json.String (Stt_semiring.Semiring.name k));
                  ("budget", Json.Int budget);
                  ("edges", Json.Int nedges);
                  ("connections", Json.Int connections);
                  ("requests", Json.Int requests);
                  ("batch", Json.Int batch);
                  ("skew", Json.Float skew);
                  ("frames", Json.Int r.Loadgen.sent);
                  ("sent", Json.Int r.Loadgen.tuples);
                  ("answered_frames", Json.Int r.Loadgen.answered);
                  ("errors", Json.Int errors);
                  ("mismatched", Json.Int r.Loadgen.mismatched);
                  ("identical_answers", Json.Bool identical);
                  ("elapsed_s", Json.Float r.Loadgen.elapsed_s);
                  ("aggs_per_sec", Json.Float r.Loadgen.throughput);
                  ("p50_us", Json.Float r.Loadgen.p50_us);
                  ("p95_us", Json.Float r.Loadgen.p95_us);
                  ("p99_us", Json.Float r.Loadgen.p99_us);
                  ("agg_table_size", Json.Int (Engine.agg_table_size benched));
                  ("host_cpus", Json.Int (Domain.recommended_domain_count ()));
                ] )
          | None ->
              let json_server_cache =
                match server_cache with
                | None -> Json.Null
                | Some ch ->
                    let lookups = ch.Frame.cache_hits + ch.Frame.cache_misses in
                    Json.Obj
                      [
                        ("budget", Json.Int ch.Frame.cache_budget);
                        ("used", Json.Int ch.Frame.cache_used);
                        ("entries", Json.Int ch.Frame.cache_entries);
                        ("hits", Json.Int ch.Frame.cache_hits);
                        ("misses", Json.Int ch.Frame.cache_misses);
                        ( "hit_rate",
                          Json.Float
                            (if lookups = 0 then 0.0
                             else
                               float_of_int ch.Frame.cache_hits
                               /. float_of_int lookups) );
                      ]
              in
              Format.printf
                "%d sent: %d answered (%d rows), %d shed, %d past deadline, \
                 %d lost, %d duplicated, %d mismatched, %d errors@."
                r.Loadgen.sent r.Loadgen.answered r.Loadgen.rows
                r.Loadgen.rejected_overload r.Loadgen.rejected_deadline
                r.Loadgen.lost r.Loadgen.duplicated r.Loadgen.mismatched
                r.Loadgen.errors;
              Format.printf
                "%.0f answers/sec   rtt p50 %.0fus  p95 %.0fus  p99 %.0fus@."
                r.Loadgen.throughput r.Loadgen.p50_us r.Loadgen.p95_us
                r.Loadgen.p99_us;
              ( r.Loadgen.answered > 0 && r.Loadgen.lost = 0
                && r.Loadgen.duplicated = 0 && r.Loadgen.mismatched = 0
                && r.Loadgen.errors = 0,
                (if sharded then "emp-shard" else "emp-net"),
                [
                  ("host", Json.String host);
                  ("port", Json.Int port);
                  ("connections", Json.Int connections);
                  ("active", Json.Int driven);
                  ("drivers", Json.Int (min drivers driven));
                  ("io_backend", Json.String server_io_backend);
                  ("requests", Json.Int requests);
                  ("batch", Json.Int batch);
                  ("skew", Json.Float skew);
                  ("deadline_ms", Json.Int deadline_ms);
                  ("sent", Json.Int r.Loadgen.sent);
                  ("answered", Json.Int r.Loadgen.answered);
                  ("rows", Json.Int r.Loadgen.rows);
                  ("rejected_overload", Json.Int r.Loadgen.rejected_overload);
                  ("rejected_deadline", Json.Int r.Loadgen.rejected_deadline);
                  ("lost", Json.Int r.Loadgen.lost);
                  ("duplicated", Json.Int r.Loadgen.duplicated);
                  ("mismatched", Json.Int r.Loadgen.mismatched);
                  ("errors", Json.Int r.Loadgen.errors);
                  ("verified", Json.Bool (verify && r.Loadgen.mismatched = 0));
                  ("elapsed_s", Json.Float r.Loadgen.elapsed_s);
                  ("answers_per_sec", Json.Float r.Loadgen.throughput);
                  ("p50_us", Json.Float r.Loadgen.p50_us);
                  ("p95_us", Json.Float r.Loadgen.p95_us);
                  ("p99_us", Json.Float r.Loadgen.p99_us);
                  ("cache_budget", Json.Int cache_budget);
                  ("server_cache", json_server_cache);
                  (* shard-scaling ratios only mean something relative
                     to the cores the fleet could actually use *)
                  ("host_cpus", Json.Int (Domain.recommended_domain_count ()));
                ] )
        in
        let speedup_fields =
          match baseline with
          | None -> []
          | Some (file, backend, base_tput) ->
              let ratio = r.Loadgen.throughput /. base_tput in
              Format.printf
                "vs %s (%s, %.0f answers/sec): %.2fx@." file backend
                base_tput ratio;
              [
                ("baseline_artifact", Json.String file);
                ("baseline_io_backend", Json.String backend);
                ("baseline_answers_per_sec", Json.Float base_tput);
                ("backend_speedup", Json.Float ratio);
              ]
        in
        let doc =
          Json.Obj
            [
              ("schema", Json.String "stt-bench/1");
              ("experiment", Json.String experiment);
              ("wall_s", Json.Float wall);
              ("data", Json.Obj (data @ shard_fields @ speedup_fields));
              ("trace", Obs.trace ());
            ]
        in
        Json.to_file artifact doc;
        Format.printf "artifact: %s@." artifact;
        Obs.set_enabled false;
        if not clean then begin
          Format.eprintf
            "stt bench-net: run not clean (%d sent: %d answered, %d shed, %d \
             past deadline, %d lost, %d duplicated, %d mismatched, %d \
             errors)@."
            r.Loadgen.sent r.Loadgen.answered r.Loadgen.rejected_overload
            r.Loadgen.rejected_deadline r.Loadgen.lost r.Loadgen.duplicated
            r.Loadgen.mismatched r.Loadgen.errors;
          exit 1
        end
  in
  Cmd.v (Cmd.info "bench-net" ~doc)
    Term.(
      const run $ query_arg $ budget_arg $ edges_arg $ seed_arg $ host_arg
      $ port_arg $ connections_arg $ drivers_arg $ active_arg
      $ net_requests_arg
      $ net_batch_arg $ skew_arg $ cache_budget_arg $ deadline_ms_arg
      $ verify_arg $ bench_artifact_arg $ speedup_vs_arg $ shards_arg
      $ shard_jobs_arg $ router_jobs_arg $ drain_after_arg $ agg_arg
      $ io_backend_arg)

let main =
  let doc = "space-time tradeoffs for conjunctive queries with access patterns" in
  Cmd.group
    (Cmd.info "stt" ~version:"1.0.0" ~doc)
    [
      queries_cmd;
      pmtds_cmd;
      rules_cmd;
      tradeoff_cmd;
      curve_cmd;
      demo_cmd;
      serve_cmd;
      serve_net_cmd;
      route_cmd;
      snapshot_cmd;
      bench_net_cmd;
    ]

(* audit: no command may die with a raw backtrace — untyped escapes
   (Failure, Sys_error, stray Unix errors) become one-line `stt: ...`
   messages with a non-zero exit, matching the typed error paths above *)
let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Failure msg | exception Sys_error msg ->
      Format.eprintf "stt: %s@." msg;
      exit 1
  | exception Unix.Unix_error (e, fn, arg) ->
      Format.eprintf "stt: %s%s: %s@." fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e);
      exit 1
