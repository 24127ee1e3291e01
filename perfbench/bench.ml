(* The serving benchmark of the CQAP index: one seeded workload per run,
   every answer checked, end-to-end metrics (or, with --trace 1, the
   per-layer metrics) printed as the last line of stdout.

     bench.exe --workload point-2reach|routed-2reach|churn-3reach
               --seed N --seconds S --trace 0|1

   Why each workload exists, and which metric should move for which
   change, is written down in perfbench/README.md. *)

open Stt_relation
open Stt_hypergraph
open Stt_core
open Stt_workload
module Json = Stt_obs.Json
module Obs = Stt_obs.Obs
module Mono = Stt_net.Mono
module Frame = Stt_net.Frame
module Client = Stt_net.Client
module Fleet = Stt_shard.Fleet
module Router = Stt_shard.Router
module Semiring = Stt_semiring.Semiring

let now_s () = float_of_int (Mono.now_ns ()) /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fdiv a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* samples and percentiles                                              *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* nearest-rank percentile; 0 for an empty sample *)
let percentile xs p =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile (Array.of_list xs) 0.5

(* The median, over consecutive windows of 1024 samples, of each
   window's percentile: a burst of interference from other tenants of
   the host moves one window, not the result.  Short samples fall back
   to the plain percentile. *)
let windowed xs p =
  let w = 1024 in
  let n = Array.length xs in
  if n < 2 * w then percentile xs p
  else median (List.init (n / w) (fun k -> percentile (Array.sub xs (k * w) w) p))
let mean xs = fdiv (Array.fold_left ( +. ) 0.0 xs) (float_of_int (Array.length xs))

(* ------------------------------------------------------------------ *)
(* process probes (Linux /proc)                                         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in path with
  | ic ->
      let s = In_channel.input_all ic in
      close_in ic;
      Some s
  | exception Sys_error _ -> None

(* fields after the ")" that closes the command name of /proc/PID/stat *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> [||]
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> [||]
      | Some i ->
          String.sub s (i + 2) (String.length s - i - 2)
          |> String.split_on_char ' ' |> Array.of_list)

(* user+sys CPU seconds of another process; the kernel reports clock
   ticks at USER_HZ, which is 100 on Linux *)
let cpu_of_pid pid =
  let f = stat_fields pid in
  if Array.length f < 13 then 0.0
  else (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              float_of_string (List.hd (String.split_on_char ' ' (String.trim v)))
              /. 1024.0
          | _ -> acc)
        0.0 (String.split_on_char '\n' s)

(* Lowers this process's VmHWM to its current RSS (Linux 4.0 and later),
   so the peak read next covers only what ran in between.  Freed heap
   the runtime keeps mapped still counts. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* the replica children Fleet.launch spawned (their pids are not exported) *)
let child_pids () =
  let me = Unix.getpid () in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | Some pid ->
             let f = stat_fields pid in
             if Array.length f > 1 && int_of_string_opt f.(1) = Some me then
               Some pid
             else None
         | None -> None)

(* ------------------------------------------------------------------ *)
(* fixtures and input streams                                           *)
(* ------------------------------------------------------------------ *)

let vertices = 400
let n_edges = 4_000
let setup_reps = 7

(* Paths relative to the checkout root, where run.py starts the benchmark:
   the replica executable dune builds, and the scratch directory. *)
let stt = Filename.concat "_build" (Filename.concat "default" "bin/stt.exe")
let work = Filename.concat "perfbench" "_work"

(* Fixed graphs, so the request stream is all that --seed changes and
   runs on different seeds measure the same index: 113 is the emp-serve
   graph, 131 the emp-churn graph. *)
let graph seed = Graphs.zipf_both ~seed ~vertices ~edges:n_edges ~s:1.1

let db_of edges =
  let db = Db.create () in
  Db.add_pairs db Scenario.edge_relation edges;
  db

type build_info = { enum_s : float; engine_s : float; pivots : int }

let build q ~db ~budget =
  let p0 = Stt_lp.Simplex.pivot_count () in
  let t0 = now_s () in
  let pmtds = Stt_decomp.Enum.pmtds ~max_pmtds:128 q in
  let t1 = now_s () in
  let e = Engine.build q pmtds ~db ~budget in
  let t2 = now_s () in
  ( e,
    {
      enum_s = t1 -. t0;
      engine_s = t2 -. t1;
      pivots = Stt_lp.Simplex.pivot_count () - p0;
    } )

type op =
  | Answer of int array
  | Count of int array
  | Insert of int * int
  | Delete of int * int

let input_hash ops =
  let h = ref 0xcbf29ce484222 in
  let mix x = h := (!h lxor x) * 0x100000001b3 land max_int in
  Array.iter
    (function
      | Answer k -> mix 1; Array.iter mix k
      | Count k -> mix 2; Array.iter mix k
      | Insert (u, v) -> mix 3; mix u; mix v
      | Delete (u, v) -> mix 4; mix u; mix v)
    ops;
  !h

(* Stratified uniforms in [0, 1): each run of [block] draws takes one
   value from each 1/block slice, in shuffled order.  Every seed draws
   fresh values, but the histogram of any whole block matches the law,
   so seeds differ in which keys come when, not in how many heavy keys a
   run meets — the run-to-run spread of a 10-second run then measures
   the program, not the luck of the draw. *)
let stratified rng ~block =
  let perm = Array.init block Fun.id and pos = ref block in
  fun () ->
    if !pos = block then begin
      Rng.shuffle rng perm;
      pos := 0
    end;
    let u = (float_of_int perm.(!pos) +. Rng.float rng 1.0) /. float_of_int block in
    incr pos;
    u

(* Zipf(s) ranks in [0, n) by inverse CDF over stratified uniforms; s = 0
   is uniform.  Like Scenario.zipf_requests, the rank is the vertex. *)
let zipf rng ~n ~s ~block =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !acc
  done;
  let u = stratified rng ~block in
  fun () ->
    let x = u () *. !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) > x then hi := mid else lo := mid + 1
    done;
    !lo

(* point and routed: Zipf(1.5) keys, every 8th request a COUNT *)
let serving_stream ~seed ~n =
  let key = zipf (Rng.create seed) ~n:vertices ~s:1.5 ~block:4096 in
  Array.init n (fun i ->
      let k = [| key (); key () |] in
      if i mod 8 = 7 then Count k else Answer k)

(* The write probe of point and routed: absent edges, each inserted
   into the write primary and deleted again, so the primary's
   graph is the fixture again after every pair.  Endpoints follow the
   churn law (Zipf(1.1), like Scenario.churn_ops), so heavy vertices
   take their share of the writes.  Reads never see the primary, so the
   probe runs after the read phase.  A pair that is an edge already is
   drawn again whole, as the churn mix would make it a redundant insert.
   Each pair leaves the graph as it found it, so the latencies depend on
   the set of pairs, not on their order.  Like the graph, the set is a
   fixture, drawn once; [seed] orders it.  Drawn per seed, the number of
   hub pairs a seed got moved the probe's latencies along with the host. *)
let toggle_pairs = 400

let toggle_stream ~seed ~edges =
  let rng = Rng.create 0x7061 in
  let endpoint () = zipf rng ~n:vertices ~s:1.1 ~block:64 in
  let src = endpoint () and dst = endpoint () in
  let taken = Hashtbl.create (2 * n_edges) in
  List.iter (fun e -> Hashtbl.replace taken e ()) edges;
  let rec absent () =
    let e = (src (), dst ()) in
    if Hashtbl.mem taken e then absent () else e
  in
  let pairs = Array.init toggle_pairs (fun _ -> absent ()) in
  Rng.shuffle (Rng.create (seed lxor 0x7061)) pairs;
  Array.concat
    (Array.to_list (Array.map (fun (u, v) -> [| Insert (u, v); Delete (u, v) |]) pairs))

(* churn: the mix of Scenario.churn_ops (~30% inserts, ~15% deletes of
   live edges, ~55% queries, Zipf(1.1) endpoints and keys) drawn from
   the run's seed over the fixed graph; every 4th query is a COUNT. *)
let churn_stream ~seed ~edges ~n =
  let rng = Rng.create seed in
  (* one stratified draw per role, so each role's histogram is the law's
     block by block, not that of one sequence interleaved across roles *)
  let draw () = zipf rng ~n:vertices ~s:1.1 ~block:64 in
  let src = draw () and dst = draw () in
  let answer_key = (draw (), draw ()) and count_key = (draw (), draw ()) in
  let kind = stratified rng ~block:20 in
  let live = Array.make (List.length edges + n) (0, 0) in
  List.iteri (fun i e -> live.(i) <- e) edges;
  let n_live = ref (List.length edges) in
  let seen = Hashtbl.create (2 * n_edges) in
  List.iter (fun e -> Hashtbl.replace seen e ()) edges;
  let queries = ref 0 in
  Array.init n (fun _ ->
      let r = kind () in
      if r < 0.30 then begin
        let e = (src (), dst ()) in
        if not (Hashtbl.mem seen e) then begin
          Hashtbl.replace seen e ();
          live.(!n_live) <- e;
          incr n_live
        end;
        Insert (fst e, snd e)
      end
      else if r < 0.45 && !n_live > 0 then begin
        let i = Rng.int rng !n_live in
        let u, v = live.(i) in
        live.(i) <- live.(!n_live - 1);
        decr n_live;
        Hashtbl.remove seen (u, v);
        Delete (u, v)
      end
      else begin
        incr queries;
        let key (k1, k2) = [| k1 (); k2 () |] in
        if !queries mod 4 = 0 then Count (key count_key) else Answer (key answer_key)
      end)

(* ------------------------------------------------------------------ *)
(* the measured phase                                                   *)
(* ------------------------------------------------------------------ *)

type tally = {
  answer_us : Samples.t;
  agg_us : Samples.t;
  update_us : Samples.t;
  mutable answer_cost : Cost.snapshot;
  mutable answers : int;
  mutable agg_cost : Cost.snapshot;
  mutable aggs : int;
  mutable update_cost : Cost.snapshot;
  mutable updates : int;
  mutable effective : int;
  mutable attempted : int;
  mutable failed : int;
  (* traced runs only *)
  mutable engine_ns : int;
  mutable engine_ops : int;
  mutable alloc_bytes : float;
  mutable miss_engine_ns : int;
  mutable twopp_ns : int;
  mutable misses : int;
  mutable invalidated : int;
  mutable request_bytes : int;
  mutable response_bytes : int;
  mutable frames : int;
}

let tally () =
  {
    answer_us = Samples.create ();
    agg_us = Samples.create ();
    update_us = Samples.create ();
    answer_cost = Cost.zero;
    answers = 0;
    agg_cost = Cost.zero;
    aggs = 0;
    update_cost = Cost.zero;
    updates = 0;
    effective = 0;
    attempted = 0;
    failed = 0;
    engine_ns = 0;
    engine_ops = 0;
    alloc_bytes = 0.0;
    miss_engine_ns = 0;
    twopp_ns = 0;
    misses = 0;
    invalidated = 0;
    request_bytes = 0;
    response_bytes = 0;
    frames = 0;
  }

let fail tl = tl.failed <- tl.failed + 1

(* [window] is the phase's (start, stop) in Mono ns *)
type phase = { ops : int; wall_s : float; cpu_s : float; window : int * int }

(* Runs [step i] for i = 0, 1, ... until [seconds] have passed and at
   least [min_ops] steps ran, or [limit] steps ran.  [checkpoint] runs
   once, right after step [min_ops - 1]: counts read there cover the
   same requests on every run of a seed.  [extra_cpu] reads the CPU of
   processes other than this one. *)
let drive ?(extra_cpu = fun () -> 0.0) ~seconds ~min_ops ~limit ~checkpoint
    step =
  let c0 = cpu_self () +. extra_cpu () in
  let t0 = Mono.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  while !i < limit && (!i < min_ops || Mono.now_ns () < deadline) do
    step !i;
    incr i;
    if !i = min_ops then checkpoint ()
  done;
  let t1 = Mono.now_ns () in
  {
    ops = !i;
    wall_s = float_of_int (t1 - t0) /. 1e9;
    cpu_s = cpu_self () +. extra_cpu () -. c0;
    window = (t0, t1);
  }

let in_span sp name ~req f =
  match sp with None -> f () | Some t -> Span.run t name ~req f

let timed_ns f =
  let t0 = Mono.now_ns () in
  let x = f () in
  (x, Mono.now_ns () - t0)

let update engine tl sp ~req ~must_apply op =
  let rel = Scenario.edge_relation in
  let (eff, cost), ns =
    in_span sp "engine.update" ~req (fun () ->
        timed_ns (fun () ->
            match op with
            | Insert (u, v) -> Engine.insert engine rel [| u; v |]
            | Delete (u, v) -> Engine.delete engine rel [| u; v |]
            | Answer _ | Count _ -> assert false))
  in
  Samples.add tl.update_us (us_of_ns ns);
  tl.updates <- tl.updates + 1;
  if eff then tl.effective <- tl.effective + 1;
  tl.update_cost <- Cost.add tl.update_cost cost;
  (* a toggle always changes the graph; a churn delta may be redundant *)
  if must_apply && not eff then fail tl

(* Answers seen during a phase, by request key: every later answer to
   the same key must equal the first, and the first is checked against
   a reference engine after the phase. *)
type memo = {
  tuples : (int array, int array list) Hashtbl.t;
  counts : (int array, int) Hashtbl.t;
}

let memo () = { tuples = Hashtbl.create 4096; counts = Hashtbl.create 1024 }
let rows_of r = List.sort Tuple.compare (Relation.to_list r)

let memo_rows tl m key rows =
  match Hashtbl.find_opt m.tuples key with
  | None -> Hashtbl.add m.tuples (Array.copy key) rows
  | Some rows0 -> if rows <> rows0 then fail tl

let memo_count tl m key v =
  match Hashtbl.find_opt m.counts key with
  | None -> Hashtbl.add m.counts (Array.copy key) v
  | Some v0 -> if v <> v0 then fail tl

let cache_counts e =
  match Engine.cache_stats e with
  | Some s -> (s.Stt_cache.Cache.misses, s.Stt_cache.Cache.invalidated)
  | None -> (0, 0)

(* One in-process request against [serve].  With a span recorder the
   call is wrapped in spans, and a tuple answer that missed the cache
   also runs Twopp.online on its own, so the 2PP share of the engine time
   can be told from the Yannakakis-plus-union residual. *)
let exec_local ~serve ~memo ~sp tl i op =
  let acc = Engine.access_schema serve in
  tl.attempted <- tl.attempted + 1;
  in_span sp
    (match op with
    | Answer _ -> "op.answer"
    | Count _ -> "op.count"
    | Insert _ | Delete _ -> "op.update")
    ~req:i
  @@ fun () ->
  match op with
  | Answer key -> (
      let q_a = Relation.singleton acc key in
      let misses0, _ = if sp = None then (0, 0) else cache_counts serve in
      let a0 = if sp = None then 0.0 else Gc.allocated_bytes () in
      match
        in_span sp "engine.answer" ~req:i (fun () ->
            timed_ns (fun () -> Engine.answer_batch serve [ q_a ]))
      with
      | [ (r, cost) ], ns ->
          Samples.add tl.answer_us (us_of_ns ns);
          tl.answers <- tl.answers + 1;
          tl.answer_cost <- Cost.add tl.answer_cost cost;
          if sp <> None then begin
            tl.alloc_bytes <- tl.alloc_bytes +. Gc.allocated_bytes () -. a0;
            tl.engine_ns <- tl.engine_ns + ns;
            tl.engine_ops <- tl.engine_ops + Cost.total cost;
            let misses1, _ = cache_counts serve in
            if Engine.cache serve = None || misses1 > misses0 then begin
              let (), tns =
                in_span sp "twopp.online" ~req:i (fun () ->
                    timed_ns (fun () ->
                        List.iter
                          (fun s -> ignore (Twopp.online s ~q_a))
                          (Engine.structures serve)))
              in
              tl.misses <- tl.misses + 1;
              tl.miss_engine_ns <- tl.miss_engine_ns + ns;
              tl.twopp_ns <- tl.twopp_ns + tns
            end
          end;
          Option.iter (fun m -> memo_rows tl m key (rows_of r)) memo
      | _ -> fail tl)
  | Count key ->
      let q_a = Relation.singleton acc key in
      let (v, cost), ns =
        in_span sp "engine.answer_agg" ~req:i (fun () ->
            timed_ns (fun () -> Engine.answer_agg serve Semiring.Count ~q_a))
      in
      Samples.add tl.agg_us (us_of_ns ns);
      tl.aggs <- tl.aggs + 1;
      tl.agg_cost <- Cost.add tl.agg_cost cost;
      Option.iter (fun m -> memo_count tl m key v) memo
  | Insert _ | Delete _ ->
      let _, inv0 = if sp = None then (0, 0) else cache_counts serve in
      update serve tl sp ~req:i ~must_apply:false op;
      if sp <> None then
        tl.invalidated <- tl.invalidated + snd (cache_counts serve) - inv0

(* every memoized answer against a reference engine; returns mismatches *)
let verify_memo m reference =
  let acc = Engine.access_schema reference in
  let bad = ref 0 in
  Hashtbl.iter
    (fun key rows ->
      let q_a = Relation.singleton acc key in
      if rows <> rows_of (Engine.answer reference ~q_a) then incr bad)
    m.tuples;
  Hashtbl.iter
    (fun key v ->
      let q_a = Relation.singleton acc key in
      if fst (Engine.answer_agg reference Semiring.Count ~q_a) <> v then incr bad)
    m.counts;
  !bad

(* The write probe of point and routed: every toggle on the primary,
   timed like the reads; returns its (start, stop) in Mono ns. *)
let write_probe writer toggles tl sp ~first_req =
  Gc.compact ();
  let t0 = Mono.now_ns () in
  Array.iteri
    (fun k op ->
      let req = first_req + k in
      tl.attempted <- tl.attempted + 1;
      in_span sp "op.update" ~req (fun () ->
          update writer tl sp ~req ~must_apply:true op))
    toggles;
  (t0, Mono.now_ns ())

(* [written] must answer every key like [reference]: this checks
   maintenance, and COUNT after the first delta dropped the tables.
   Returns mismatches. *)
let verify_keys written reference keys =
  let acc = Engine.access_schema reference in
  List.fold_left
    (fun bad key ->
      let q_a = Relation.singleton acc key in
      let t_ok = Relation.equal (Engine.answer written ~q_a) (Engine.answer reference ~q_a) in
      let c_ok =
        fst (Engine.answer_agg written Semiring.Count ~q_a)
        = fst (Engine.answer_agg reference Semiring.Count ~q_a)
      in
      bad + (if t_ok then 0 else 1) + if c_ok then 0 else 1)
    0 keys

let sample_keys ~seed n =
  Scenario.zipf_requests ~seed ~n:vertices ~requests:n ~skew:1.5 ~arity:2

(* ------------------------------------------------------------------ *)
(* results                                                              *)
(* ------------------------------------------------------------------ *)

type result = {
  metrics : (string * float * string) list;
  fingerprint : (string * int) list;
  ops_attempted : int;
  ops_failed : int;
}

let latency_metrics tl =
  let a = Samples.to_array tl.answer_us in
  let u = Samples.to_array tl.update_us in
  let show name xs =
    Printf.printf "%s: %d samples, p50 %.1f p75 %.1f p90 %.1f p99 %.1f us\n" name
      (Array.length xs) (percentile xs 0.5) (percentile xs 0.75) (percentile xs 0.9)
      (percentile xs 0.99)
  in
  show "answers" a;
  show "aggs" (Samples.to_array tl.agg_us);
  show "updates" u;
  [
    ("answer_p50_us", windowed a 0.5, "us");
    ("answer_p90_us", windowed a 0.9, "us");
    ("agg_p50_us", windowed (Samples.to_array tl.agg_us) 0.5, "us");
    ("update_p50_us", windowed u 0.5, "us");
  ]

let end_to_end ~setup ~tl ~phase ~ops_per_answer ~space ~rss =
  (("setup_s", median setup, "s") :: latency_metrics tl)
  @ [
      ("cpu_us_per_op", fdiv (phase.cpu_s *. 1e6) (float_of_int phase.ops), "us");
      ("ops_per_answer", ops_per_answer, "ops");
      ("space_singletons", space, "singletons");
      ("peak_rss_mb", rss, "MB");
    ]

(* per-layer metrics common to the in-process layers *)
let cost_metrics tl =
  let per c n f = ratio (f c) n in
  [
    ("cost.probes_per_answer", per tl.answer_cost tl.answers (fun c -> c.Cost.probes), "probes");
    ("cost.tuples_per_answer", per tl.answer_cost tl.answers (fun c -> c.Cost.tuples), "tuples");
    ("cost.scans_per_answer", per tl.answer_cost tl.answers (fun c -> c.Cost.scans), "scans");
    ("cost.probes_per_update", per tl.update_cost tl.updates (fun c -> c.Cost.probes), "probes");
    ("cost.tuples_per_update", per tl.update_cost tl.updates (fun c -> c.Cost.tuples), "tuples");
    ("cost.scans_per_update", per tl.update_cost tl.updates (fun c -> c.Cost.scans), "scans");
    ("maintain.us_per_update", mean (Samples.to_array tl.update_us), "us");
    ("maintain.update_p90_us", percentile (Samples.to_array tl.update_us) 0.9, "us");
    ("maintain.ops_per_update", ratio (Cost.total tl.update_cost) tl.updates, "ops");
    ("maintain.effective_ratio", ratio tl.effective tl.updates, "ratio");
    ("agg.ops_per_request", ratio (Cost.total tl.agg_cost) tl.aggs, "ops");
  ]

let engine_metrics tl =
  let engine_us = us_of_ns tl.engine_ns /. float_of_int (max 1 tl.answers) in
  let miss_us = us_of_ns tl.miss_engine_ns /. float_of_int (max 1 tl.misses) in
  let twopp_us = us_of_ns tl.twopp_ns /. float_of_int (max 1 tl.misses) in
  [
    ("engine.answer_us", engine_us, "us");
    ("engine.ns_per_op", ratio tl.engine_ns tl.engine_ops, "ns/op");
    ("gc.alloc_bytes_per_answer", fdiv tl.alloc_bytes (float_of_int tl.answers), "bytes");
    ("twopp.online_us", twopp_us, "us");
    ("twopp.online_share", ratio tl.twopp_ns tl.miss_engine_ns, "ratio");
    ("oy_union.us", miss_us -. twopp_us, "us");
  ]

let build_metrics builds =
  [
    ("build.enum_s", median (List.map (fun b -> b.enum_s) builds), "s");
    ("build.engine_s", median (List.map (fun b -> b.engine_s) builds), "s");
    ("build.simplex_pivots", float_of_int (List.hd builds).pivots, "pivots");
  ]

(* Summarizes the traced phases ([windows]: the read loop, and the write
   probe where there is one): self time per span name, and the time
   inside the windows that no root span covers.  Spans must nest (each
   inside its parent, roots one after another inside a window), and self
   times plus [unattributed] must add up to the windows' wall time. *)
let trace_metrics ~name sp ~windows ~untraced_p50 ~traced_p50 =
  let s = Span.summarize sp ~windows in
  let wall_us = s.Span.window_us and unattributed = s.Span.unattributed_us in
  if not s.Span.nested then failwith "trace: spans do not nest inside the phases";
  if Float.abs (s.Span.self_us +. unattributed -. wall_us) > 1e-6 *. wall_us then
    failwith
      (Printf.sprintf "trace: self %.0f us + unattributed %.0f us <> wall %.0f us"
         s.Span.self_us unattributed wall_us);
  Printf.printf "%-22s %8s %12s %12s\n" "span" "count" "total_us" "self_us";
  List.iter
    (fun (n, c, tot, self) -> Printf.printf "%-22s %8d %12.0f %12.0f\n" n c tot self)
    s.Span.by_name;
  Printf.printf "%-22s %8s %12s %12.0f\n" "unattributed" "" "" unattributed;
  Printf.printf "%-22s %8s %12s %12.0f\n" "phase wall" "" "" wall_us;
  Span.write sp (Filename.concat work (Printf.sprintf "spans-%s.jsonl" name));
  [
    ("trace.unattributed_us", unattributed, "us");
    ("trace.unattributed_share", fdiv unattributed wall_us, "ratio");
    ("trace.overhead_us", traced_p50 -. untraced_p50, "us");
    ("trace.spans", float_of_int sp.Span.n, "spans");
  ]

let print_setup times =
  print_endline
    ("set-up s: " ^ String.concat " " (List.map (Printf.sprintf "%.4f") times))

(* Runs [setup] [setup_reps] times, each after a compaction.  Returns the
   engines of the set-ups [keep] selects (the others are garbage before
   the next starts), the build infos and the set-up times. *)
let set_up_reps ~keep setup =
  let kept = Array.make setup_reps None in
  let reps =
    List.init setup_reps (fun k ->
        Gc.compact ();
        let t0 = now_s () in
        let e, info = setup () in
        let t = now_s () -. t0 in
        if keep k then kept.(k) <- Some e;
        (info, t))
  in
  print_setup (List.map snd reps);
  ((fun k -> Option.get kept.(k)), List.map fst reps, List.map snd reps)

(* ------------------------------------------------------------------ *)
(* point-2reach                                                         *)
(* ------------------------------------------------------------------ *)

let point ~seed ~seconds ~traced =
  let q = Cq.Library.k_path 2 in
  let edges = graph 113 in
  let setup () =
    let db = db_of edges in
    let e, info = build q ~db ~budget:2_000 in
    Engine.enable_agg ~kinds:[ Semiring.Count ] e ~db ~budget:200_000;
    (e, info)
  in
  let stream = serving_stream ~seed ~n:262_144 in
  let toggles = toggle_stream ~seed ~edges in
  (* The last set-up serves, and only it lives through the read phase,
     so peak_rss_mb is its own.  The reference and the write primary are
     built after the first read phase, outside every timed window. *)
  let last = setup_reps - 1 in
  let engine, infos, setup_times = set_up_reps ~keep:(fun k -> k = last) setup in
  let serve = engine last in
  let others = lazy (fst (setup ()), fst (setup ())) in
  let n = Array.length stream in
  let run_phase ~seconds ~min_ops ~sp ~checkpoint ~probe =
    let tl = tally () in
    let memo = memo () in
    Gc.compact ();
    reset_peak_rss ();
    let phase =
      drive ~seconds ~min_ops ~limit:max_int ~checkpoint:(checkpoint tl)
        (fun i -> exec_local ~serve ~memo:(Some memo) ~sp tl i stream.(i mod n))
    in
    let rss = peak_rss_mb (Unix.getpid ()) in
    let reference, writer = Lazy.force others in
    let windows =
      phase.window
      :: (if probe then [ write_probe writer toggles tl sp ~first_req:phase.ops ] else [])
    in
    tl.failed <-
      tl.failed + verify_memo memo reference
      + verify_keys writer reference (sample_keys ~seed 64);
    (tl, phase, windows, rss)
  in
  let space = Engine.total_space serve in
  if not traced then begin
    let fp = ref [] in
    let tl, phase, _, rss =
      run_phase ~seconds ~min_ops:131_072 ~sp:None ~probe:true ~checkpoint:(fun tl () ->
          fp :=
            [
              ("answer_ops", Cost.total tl.answer_cost);
              ("answers", tl.answers);
              ("space_singletons", space);
              ("agg_tables_live", List.length (Engine.agg_kinds serve));
            ])
    in
    let ops_per_answer = ratio (List.assoc "answer_ops" !fp) (List.assoc "answers" !fp) in
    {
      metrics =
        end_to_end ~setup:setup_times ~tl ~phase ~ops_per_answer
          ~space:(float_of_int space) ~rss;
      fingerprint = ("inputs", input_hash (Array.append stream toggles)) :: !fp;
      ops_attempted = tl.attempted;
      ops_failed = tl.failed;
    }
  end
  else begin
    let half = seconds /. 2.0 in
    let no_cp _ () = () in
    let tl0, _, _, _ = run_phase ~seconds:half ~min_ops:0 ~sp:None ~probe:false ~checkpoint:no_cp in
    let sp = Span.create () in
    let tl, _, windows, _ =
      run_phase ~seconds:half ~min_ops:0 ~sp:(Some sp) ~probe:true ~checkpoint:no_cp
    in
    {
      metrics =
        engine_metrics tl @ cost_metrics tl
        @ [
            ("agg.us", mean (Samples.to_array tl.agg_us), "us");
            ("agg.tables_live", float_of_int (List.length (Engine.agg_kinds serve)), "tables");
            ("agg.table_entries", float_of_int (Engine.agg_table_size serve), "entries");
          ]
        @ build_metrics infos
        @ trace_metrics ~name:"point-2reach" sp ~windows
            ~untraced_p50:(percentile (Samples.to_array tl0.answer_us) 0.5)
            ~traced_p50:(percentile (Samples.to_array tl.answer_us) 0.5);
      fingerprint = [];
      ops_attempted = tl0.attempted + tl.attempted;
      ops_failed = tl0.failed + tl.failed;
    }
  end

(* ------------------------------------------------------------------ *)
(* churn-3reach                                                         *)
(* ------------------------------------------------------------------ *)

(* the ops every end-to-end run covers, whatever its speed: counts read
   there repeat exactly for a seed *)
let churn_checkpoint = 1_200
let space_from = 64

let churn ~seed ~seconds ~traced =
  let q = Cq.Library.k_path 3 in
  let edges = graph 131 in
  let budget = 1_000 in
  let stream = churn_stream ~seed ~edges ~n:20_000 in
  let setup () =
    let db = db_of edges in
    let e, info = build q ~db ~budget in
    Engine.enable_agg ~kinds:[ Semiring.Count ] e ~db ~budget:20_000;
    Engine.attach_cache e ~budget:5_000;
    (e, info)
  in
  (* the traced run needs two fresh engines, the end-to-end run one, so
     that only the serving engine is alive when peak_rss_mb is read *)
  let last = setup_reps - 1 in
  let engine, infos, setup_times =
    set_up_reps ~keep:(fun k -> k = last || (traced && k = last - 1)) setup
  in
  (* Each phase runs the stream from its start on its own fresh engine,
     and the post-churn state is checked against a fresh build of the
     same graph.  Space moves with every delta and cache admission, so
     the run reports its mean over the checkpoint's ops, sampled every
     8th op from op 64 on: by then the first delta has dropped the COUNT
     tables, which would otherwise weigh on the mean by how late that
     delta came. *)
  let run_phase e ~seconds ~min_ops ~sp ~checkpoint =
    let tl = tally () in
    let space_sum = ref 0 in
    Gc.compact ();
    reset_peak_rss ();
    let phase =
      drive ~seconds ~min_ops ~limit:(Array.length stream)
        ~checkpoint:(checkpoint e tl space_sum)
        (fun i ->
          exec_local ~serve:e ~memo:None ~sp tl i stream.(i);
          if i >= space_from && i < min_ops && i mod 8 = 0 then
            space_sum := !space_sum + Engine.total_space e)
    in
    let rss = peak_rss_mb (Unix.getpid ()) in
    let live = Hashtbl.create (2 * n_edges) in
    List.iter (fun x -> Hashtbl.replace live x ()) edges;
    for i = 0 to phase.ops - 1 do
      match stream.(i) with
      | Insert (u, v) -> Hashtbl.replace live (u, v) ()
      | Delete (u, v) -> Hashtbl.remove live (u, v)
      | Answer _ | Count _ -> ()
    done;
    let db = db_of (Hashtbl.fold (fun x () acc -> x :: acc) live []) in
    let rebuilt, _ = build q ~db ~budget in
    Engine.enable_agg ~kinds:[ Semiring.Count ] rebuilt ~db ~budget:20_000;
    tl.failed <- tl.failed + verify_keys e rebuilt (sample_keys ~seed 64);
    (tl, phase, rss)
  in
  if not traced then begin
    let fp = ref [] in
    let tl, phase, rss =
      run_phase (engine last) ~seconds ~min_ops:churn_checkpoint ~sp:None
        ~checkpoint:(fun e tl space_sum () ->
          let hits, misses, invalidated =
            match Engine.cache_stats e with
            | Some s -> Stt_cache.Cache.(s.hits, s.misses, s.invalidated)
            | None -> (0, 0, 0)
          in
          fp :=
            [
              ("answer_ops", Cost.total tl.answer_cost);
              ("answers", tl.answers);
              ("space_sum", !space_sum);
              ("space_views", Engine.space e);
              ("cache_space", Engine.cache_space e);
              ("cache_hits", hits);
              ("cache_misses", misses);
              ("cache_invalidated", invalidated);
              ("agg_tables_live", List.length (Engine.agg_kinds e));
            ])
    in
    {
      metrics =
        end_to_end ~setup:setup_times ~tl ~phase
          ~ops_per_answer:(ratio (List.assoc "answer_ops" !fp) (List.assoc "answers" !fp))
          ~space:(ratio (List.assoc "space_sum" !fp) ((churn_checkpoint - space_from) / 8))
          ~rss;
      fingerprint = ("inputs", input_hash stream) :: !fp;
      ops_attempted = tl.attempted;
      ops_failed = tl.failed;
    }
  end
  else begin
    let half = seconds /. 2.0 in
    let no_cp _ _ _ () = () in
    let tl0, _, _ = run_phase (engine (last - 1)) ~seconds:half ~min_ops:0 ~sp:None ~checkpoint:no_cp in
    let sp = Span.create () in
    let e = engine last in
    let tl, phase, _ = run_phase e ~seconds:half ~min_ops:0 ~sp:(Some sp) ~checkpoint:no_cp in
    let cs = Engine.cache_stats e in
    let cache f = match cs with Some s -> float_of_int (f s) | None -> 0.0 in
    let open Stt_cache.Cache in
    {
      metrics =
        engine_metrics tl @ cost_metrics tl
        @ [
            ("cache.hit_rate", fdiv (cache (fun s -> s.hits)) (cache (fun s -> s.hits + s.misses)), "ratio");
            ("cache.hits", cache (fun s -> s.hits), "count");
            ("cache.lookups", cache (fun s -> s.hits + s.misses), "count");
            ("cache.invalidated_per_update", ratio tl.invalidated tl.updates, "entries");
            ("cache.entries", cache (fun s -> s.entries), "entries");
            ("cache.rejected", cache (fun s -> s.rejected), "count");
            ("agg.us", mean (Samples.to_array tl.agg_us), "us");
            ("agg.tables_live", float_of_int (List.length (Engine.agg_kinds e)), "tables");
            ("agg.table_entries", float_of_int (Engine.agg_table_size e), "entries");
          ]
        @ build_metrics infos
        @ trace_metrics ~name:"churn-3reach" sp ~windows:[ phase.window ]
            ~untraced_p50:(percentile (Samples.to_array tl0.answer_us) 0.5)
            ~traced_p50:(percentile (Samples.to_array tl.answer_us) 0.5);
      fingerprint = [];
      ops_attempted = tl0.attempted + tl.attempted;
      ops_failed = tl0.failed + tl.failed;
    }
  end

(* ------------------------------------------------------------------ *)
(* routed-2reach                                                        *)
(* ------------------------------------------------------------------ *)

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

(* A replica spawned like Fleet.launch does, plus [--json DIR]: its
   server then records net.serve_us, read back through a Stats frame.
   Only the traced run uses it. *)
let spawn_traced_replica ~snap ~dir =
  let args =
    [| stt; "serve-net"; "--from-snapshot"; snap; "--port"; "0"; "--jobs"; "1";
       "--queue"; "64"; "--cache-budget"; "5000"; "--json"; dir |]
  in
  let out_r, out_w = Unix.pipe () in
  let pid = Unix.create_process stt args Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let buf = Buffer.create 256 and chunk = Bytes.create 1024 in
  let marker = "serving on 127.0.0.1:" in
  let rec port () =
    let s = Buffer.contents buf in
    let found =
      Option.bind (find_sub s marker) (fun i ->
          let start = i + String.length marker in
          Option.bind (String.index_from_opt s start ' ') (fun j ->
              int_of_string_opt (String.sub s start (j - start))))
    in
    match found with
    | Some p -> p
    | None -> (
        match Unix.read out_r chunk 0 (Bytes.length chunk) with
        | 0 -> failwith ("traced replica exited: " ^ s)
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            port ())
  in
  let port = port () in
  (* the pipe stays open until the replica is reaped: it prints a drain
     summary on exit *)
  let stop () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close out_r
  in
  (port, pid, stop)

type conn = { mutable c : Client.t; port : int }

let connect port =
  match Client.connect ~port () with
  | Ok c -> { c; port }
  | Error e -> failwith ("connect: " ^ Frame.error_to_string e)

(* a failed round trip counts as failed; the next one gets a new socket *)
let rpc conn frame =
  match Client.rpc conn.c frame with
  | Ok r -> Ok r
  | Error e ->
      Client.close conn.c;
      (match Client.connect ~port:conn.port () with
      | Ok c -> conn.c <- c
      | Error _ -> ());
      Error e

(* One read of the routed stream, sent as a frame over [conn] and timed in
   the span [via]. *)
let exec_remote ~conn ~via ~memo ~sp tl i op =
  tl.attempted <- tl.attempted + 1;
  in_span sp (match op with Count _ -> "op.count" | _ -> "op.answer") ~req:i
  @@ fun () ->
  match op with
  | Insert _ | Delete _ -> invalid_arg "exec_remote: the routed stream only reads"
  | Answer key | Count key -> (
      let frame =
        match op with
        | Count _ ->
            Frame.Agg
              {
                id = i;
                deadline_us = 0;
                kind = Semiring.to_tag Semiring.Count;
                arity = 2;
                tuples = [ key ];
              }
        | _ -> Frame.Answer { id = i; deadline_us = 0; arity = 2; tuples = [ key ] }
      in
      if sp <> None then begin
        let blob = in_span sp "net.encode" ~req:i (fun () -> Frame.encode_request frame) in
        tl.request_bytes <- tl.request_bytes + String.length blob
      end;
      let res, ns = in_span sp via ~req:i (fun () -> timed_ns (fun () -> rpc conn frame)) in
      (match res with
      | Ok resp when sp <> None ->
          let blob = Frame.encode_response resp in
          tl.response_bytes <- tl.response_bytes + String.length blob;
          tl.frames <- tl.frames + 1;
          ignore (in_span sp "net.decode" ~req:i (fun () -> Frame.decode_response blob))
      | _ -> ());
      match (op, res) with
      | Answer _, Ok (Frame.Answers { id; answers = [ a ] }) when id = i ->
          Samples.add tl.answer_us (us_of_ns ns);
          tl.answers <- tl.answers + 1;
          tl.answer_cost <- Cost.add tl.answer_cost a.Frame.cost;
          memo_rows tl memo key a.Frame.rows
      | Count _, Ok (Frame.Agg_reply { id; value; cost }) when id = i ->
          Samples.add tl.agg_us (us_of_ns ns);
          tl.aggs <- tl.aggs + 1;
          tl.agg_cost <- Cost.add tl.agg_cost cost;
          memo_count tl memo key value
      | _ -> fail tl)

let health conn =
  match rpc conn (Frame.Health { id = 0 }) with
  | Ok (Frame.Health_reply { health; _ }) -> health
  | _ -> failwith "health probe failed"

let health_space (h : Frame.health) = h.space + h.agg_space + h.cache.cache_used

(* the p50 of an Obs histogram in a serialized trace (log-linear buckets,
   within 1/16 of the exact value), comparable with the RTT p50s *)
let hist_p50 json name =
  match Json.of_string json with
  | Error _ -> 0.0
  | Ok j -> (
      match Option.bind (Json.member "histograms" j) (Json.member name) with
      | Some h -> (
          match Json.member "p50" h with
          | Some (Json.Float f) -> f
          | _ -> 0.0)
      | None -> 0.0)

type fleet = {
  engine : Engine.t;  (** the primary: saved to the snapshot, then written to *)
  info : build_info;
  setup_s : float;
  save_s : float;
  snap_bytes : int;
  snap : string;
  router : Router.t;
  replica_port : int;
  replica_pid : int;
  shutdown : unit -> unit;
}

(* Build the index with complete COUNT tables, save it, start one
   replica (1 worker, 5,000-tuple cache) and a 1-worker router: all of
   it is set-up time. *)
let start_fleet ~dir ~traced =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let q = Cq.Library.k_path 2 in
  let t0 = now_s () in
  let db = db_of (graph 113) in
  let engine, info = build q ~db ~budget:2_000 in
  Engine.enable_agg ~kinds:[ Semiring.Count ] engine ~db ~budget:200_000;
  let snap = Filename.concat dir "primary.snap" in
  let s0 = now_s () in
  let snap_bytes =
    match Engine.save engine snap with
    | Ok b -> b
    | Error e -> failwith (Stt_store.Store.error_to_string e)
  in
  let save_s = now_s () -. s0 in
  let replica_port, replica_pid, stop_replica =
    if traced then spawn_traced_replica ~snap ~dir
    else begin
      let before = child_pids () in
      match
        Fleet.launch ~exe:stt ~snapshot:snap ~dir ~count:1 ~workers:1 ~queue:64
          ~cache_budget:5_000 ()
      with
      | Error msg -> failwith msg
      | Ok fleet ->
          let pid =
            match List.filter (fun p -> not (List.mem p before)) (child_pids ()) with
            | p :: _ -> p
            | [] -> failwith "replica process not found"
          in
          ( (List.hd (Fleet.endpoints fleet)).Router.port,
            pid,
            fun () -> Fleet.shutdown fleet )
    end
  in
  let router =
    Router.start ~port:0 ~workers:1 ~queue_capacity:64
      [ { Router.name = "shard-0"; host = "127.0.0.1"; port = replica_port } ]
  in
  let setup_s = now_s () -. t0 in
  let shutdown () =
    Router.stop router;
    ignore (Router.wait router);
    stop_replica ()
  in
  { engine; info; setup_s; save_s; snap_bytes; snap; router; replica_port;
    replica_pid; shutdown }

let routed ~seed ~seconds ~traced =
  let stream = serving_stream ~seed ~n:262_144 in
  let toggles = toggle_stream ~seed ~edges:(graph 113) in
  let n = Array.length stream in
  let dir k = Filename.concat work (Printf.sprintf "routed-%d" k) in
  (* the last fleet serves; the others only time their set-up *)
  let last = ref None in
  let reps =
    List.init setup_reps (fun k ->
        Gc.compact ();
        let f = start_fleet ~dir:(dir k) ~traced:false in
        if k < setup_reps - 1 then f.shutdown () else last := Some f;
        (f.setup_s, f.save_s, f.info))
  in
  let setup_times = List.map (fun (s, _, _) -> s) reps in
  print_setup setup_times;
  let f = Option.get !last in
  let writer = f.engine in
  let run_phase fl ~seconds ~min_ops ~sp ~checkpoint ~alternate =
    let tl = tally () and direct = tally () in
    let memo = memo () in
    let routed_c = connect (Router.port fl.router) in
    let direct_c = connect fl.replica_port in
    let reads = ref 0 in
    Gc.compact ();
    let phase =
      drive ~extra_cpu:(fun () -> cpu_of_pid fl.replica_pid) ~seconds ~min_ops
        ~limit:max_int
        ~checkpoint:(fun () -> checkpoint tl routed_c)
        (fun i ->
          let op = stream.(i mod n) in
          incr reads;
          if alternate && !reads mod 2 = 0 then
            exec_remote ~conn:direct_c ~via:"rpc.replica" ~memo ~sp direct i op
          else exec_remote ~conn:routed_c ~via:"rpc.router" ~memo ~sp tl i op)
    in
    let h = health direct_c in
    let rss = peak_rss_mb fl.replica_pid in
    let stats_json =
      if sp = None then ""
      else
        match rpc direct_c (Frame.Stats { id = 0 }) with
        | Ok (Frame.Stats_reply { json; _ }) -> json
        | _ -> ""
    in
    Client.close routed_c.c;
    Client.close direct_c.c;
    (tl, direct, memo, phase, h, rss, stats_json)
  in
  (* every read against the snapshot loaded in-process without a cache;
     the primary against the same, once its toggles are undone *)
  let verify memo tl =
    let t0 = now_s () in
    let reference =
      match Engine.load f.snap with
      | Ok e -> e
      | Error e -> failwith (Stt_store.Store.error_to_string e)
    in
    let load_s = now_s () -. t0 in
    tl.failed <-
      tl.failed + verify_memo memo reference
      + verify_keys writer reference (sample_keys ~seed 64);
    (reference, load_s)
  in
  if not traced then begin
    let fp = ref [] in
    let tl, _, memo, phase, _, rss, _ =
      Fun.protect ~finally:f.shutdown (fun () ->
          run_phase f ~seconds ~min_ops:131_072 ~sp:None ~alternate:false
            ~checkpoint:(fun tl c ->
              let h = health c in
              fp :=
                [
                  ("answer_ops", Cost.total tl.answer_cost);
                  ("answers", tl.answers);
                  ("space_singletons", health_space h);
                  ("cache_hits", h.cache.cache_hits);
                  ("cache_misses", h.cache.cache_misses);
                  ("agg_space", h.agg_space);
                ]))
    in
    (* the primary takes its writes once the serving tier is down, as a
       primary in a process of its own would *)
    ignore (write_probe writer toggles tl None ~first_req:phase.ops);
    ignore (verify memo tl);
    {
      metrics =
        end_to_end ~setup:setup_times ~tl ~phase
          ~ops_per_answer:(ratio (List.assoc "answer_ops" !fp) (List.assoc "answers" !fp))
          ~space:(float_of_int (List.assoc "space_singletons" !fp)) ~rss;
      fingerprint = ("inputs", input_hash (Array.append stream toggles)) :: !fp;
      ops_attempted = tl.attempted;
      ops_failed = tl.failed;
    }
  end
  else begin
    let half = seconds /. 2.0 in
    let no_cp _ _ = () in
    (* untraced half on the Fleet-launched replica, traced half on a
       fresh replica that records its own serve times: both start cold *)
    let tl0, _, memo0, _, _, _, _ =
      Fun.protect ~finally:f.shutdown (fun () ->
          run_phase f ~seconds:half ~min_ops:0 ~sp:None ~alternate:false ~checkpoint:no_cp)
    in
    ignore (verify memo0 tl0);
    let ft = start_fleet ~dir:(dir setup_reps) ~traced:true in
    let sp = Span.create () in
    Obs.set_enabled true;
    let tl, direct, memo, phase, h, _, stats_json =
      Fun.protect
        ~finally:(fun () ->
          Obs.set_enabled false;
          ft.shutdown ())
        (fun () ->
          run_phase ft ~seconds:half ~min_ops:0 ~sp:(Some sp) ~alternate:true
            ~checkpoint:no_cp)
    in
    let route_json = Router.trace_json ft.router in
    let probe = write_probe writer toggles tl (Some sp) ~first_req:phase.ops in
    let reference, load_s = verify memo tl in
    let routed_p50 = percentile (Samples.to_array tl.answer_us) 0.5 in
    let direct_p50 = percentile (Samples.to_array direct.answer_us) 0.5 in
    let c = h.cache in
    let lookups = c.cache_hits + c.cache_misses in
    let reads =
      {
        tl with
        answer_cost = Cost.add tl.answer_cost direct.answer_cost;
        answers = tl.answers + direct.answers;
        agg_cost = Cost.add tl.agg_cost direct.agg_cost;
        aggs = tl.aggs + direct.aggs;
      }
    in
    let frames = tl.frames + direct.frames in
    {
      metrics =
        cost_metrics reads
        @ [
            ("cache.hit_rate", ratio c.cache_hits lookups, "ratio");
            ("cache.hits", float_of_int c.cache_hits, "count");
            ("cache.lookups", float_of_int lookups, "count");
            ("cache.entries", float_of_int c.cache_entries, "entries");
            ("agg.us", hist_p50 stats_json "net.agg_us", "us");
            ("agg.tables_live", float_of_int (List.length (Engine.agg_kinds reference)), "tables");
            ("agg.table_entries", float_of_int h.agg_space, "entries");
            ("store.save_s", median (List.map (fun (_, s, _) -> s) reps), "s");
            ("store.load_s", load_s, "s");
            ("store.snapshot_bytes", float_of_int f.snap_bytes, "bytes");
            ("net.encode_us", mean (Span.durations_us sp "net.encode"), "us");
            ("net.decode_us", mean (Span.durations_us sp "net.decode"), "us");
            ("net.request_bytes", ratio (tl.request_bytes + direct.request_bytes) frames, "bytes");
            ("net.response_bytes", ratio (tl.response_bytes + direct.response_bytes) frames, "bytes");
            ("net.replica_rtt_us", direct_p50, "us");
            ("net.replica_handler_us", hist_p50 stats_json "net.serve_us", "us");
            ("shard.hop_us", routed_p50 -. direct_p50, "us");
            ("shard.serve_us", hist_p50 route_json "route.serve_us", "us");
            ("shard.retried_tuples", float_of_int (Router.retried_tuples ft.router), "tuples");
            ("shard.errors", float_of_int (Router.shard_errors ft.router), "count");
          ]
        @ build_metrics (List.map (fun (_, _, b) -> b) reps)
        @ trace_metrics ~name:"routed-2reach" sp ~windows:[ phase.window; probe ]
            ~untraced_p50:(percentile (Samples.to_array tl0.answer_us) 0.5)
            ~traced_p50:routed_p50;
      fingerprint = [];
      ops_attempted = tl0.attempted + tl.attempted + direct.attempted;
      ops_failed = tl0.failed + tl.failed + direct.failed;
    }
  end

(* ------------------------------------------------------------------ *)
(* entry point                                                          *)
(* ------------------------------------------------------------------ *)

(* Every run prints every metric of its kind, in this order; a layer a
   workload does not touch reads 0.  BENCHMARK.json lists the same
   names. *)
let end_to_end_names =
  [ "setup_s"; "answer_p50_us"; "answer_p90_us"; "agg_p50_us"; "update_p50_us";
    "cpu_us_per_op"; "ops_per_answer"; "space_singletons"; "peak_rss_mb" ]

let per_layer_units =
  [
    ("engine.answer_us", "us"); ("engine.ns_per_op", "ns/op");
    ("gc.alloc_bytes_per_answer", "bytes"); ("twopp.online_us", "us");
    ("twopp.online_share", "ratio"); ("oy_union.us", "us");
    ("cost.probes_per_answer", "probes"); ("cost.tuples_per_answer", "tuples");
    ("cost.scans_per_answer", "scans"); ("cost.probes_per_update", "probes");
    ("cost.tuples_per_update", "tuples"); ("cost.scans_per_update", "scans");
    ("cache.hit_rate", "ratio"); ("cache.hits", "count"); ("cache.lookups", "count");
    ("cache.invalidated_per_update", "entries"); ("cache.entries", "entries");
    ("cache.rejected", "count"); ("maintain.us_per_update", "us");
    ("maintain.update_p90_us", "us"); ("maintain.ops_per_update", "ops");
    ("maintain.effective_ratio", "ratio");
    ("agg.us", "us"); ("agg.ops_per_request", "ops"); ("agg.tables_live", "tables");
    ("agg.table_entries", "entries"); ("build.enum_s", "s"); ("build.engine_s", "s");
    ("build.simplex_pivots", "pivots"); ("store.save_s", "s"); ("store.load_s", "s");
    ("store.snapshot_bytes", "bytes"); ("net.encode_us", "us"); ("net.decode_us", "us");
    ("net.request_bytes", "bytes"); ("net.response_bytes", "bytes");
    ("net.replica_rtt_us", "us"); ("net.replica_handler_us", "us");
    ("shard.hop_us", "us"); ("shard.serve_us", "us"); ("shard.retried_tuples", "tuples");
    ("shard.errors", "count"); ("trace.unattributed_us", "us");
    ("trace.unattributed_share", "ratio"); ("trace.overhead_us", "us");
    ("trace.spans", "spans");
  ]

(* the workload's metrics in canonical order, 0 for the ones it lacks *)
let canonical ~traced measured =
  List.iter
    (fun (n, _, _) ->
      if not (List.mem n end_to_end_names || List.mem_assoc n per_layer_units) then
        failwith ("metric missing from the canonical lists: " ^ n))
    measured;
  let names =
    if traced then per_layer_units
    else List.map (fun n -> (n, "")) end_to_end_names
  in
  List.map
    (fun (n, u) ->
      match List.find_opt (fun (m, _, _) -> m = n) measured with
      | Some (_, v, u') -> (n, v, u')
      | None -> (n, 0.0, u))
    names

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME point-2reach | routed-2reach | churn-3reach");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  Pool.set_jobs 1;
  if Obs.enabled () then failwith "observability must be off";
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let r =
    match !workload with
    | "point-2reach" -> point ~seed ~seconds ~traced
    | "routed-2reach" -> routed ~seed ~seconds ~traced
    | "churn-3reach" -> churn ~seed ~seconds ~traced
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  if Obs.enabled () then failwith "observability left on";
  let metrics = canonical ~traced r.metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-30s %16.4f %s\n" n v u) metrics;
  if r.fingerprint <> [] then
    print_endline
      ("fingerprint "
      ^ Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.fingerprint)));
  Printf.printf "error_rate %.6f (%d failed of %d)\n" (ratio r.ops_failed r.ops_attempted)
    r.ops_failed r.ops_attempted;
  let correct = r.ops_failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int r.ops_attempted);
            ("failed", Json.Int r.ops_failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                   metrics) );
          ]));
  if not correct then exit 1
