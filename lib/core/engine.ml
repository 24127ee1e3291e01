open Stt_relation
open Stt_hypergraph
open Stt_decomp
open Stt_yannakakis
open Stt_lp
open Stt_obs
module Cache = Stt_cache.Cache
module Ckey = Stt_cache.Key
module Semiring = Stt_semiring.Semiring
module Agg_eval = Stt_semiring.Eval

(* A per-kind aggregate table over the access variables.  [complete]
   means every access tuple with at least one derivation has an entry,
   so a miss soundly contributes the semiring zero; a partial table only
   covers the heavy access keys and misses fall back to the online
   sum-product from the access rows. *)
type agg_table = { complete : bool; entries : int Tuple.Tbl.t }

type agg_state = {
  agg_budget : int;
  mutable agg_tables : (Semiring.kind * agg_table) list;
}

(* What an answer runs.  A PMTD answers when every S-view holds a row
   and some delegated plan writes each of its T-targets; any other PMTD
   adds nothing to any answer (Online Yannakakis joins every view).  The
   wanted T-targets are the ones answering PMTDs read, one accumulator
   slot each, and only plans into them run. *)
type serving = {
  answering : (Pmtd.t * Online_yannakakis.preprocessed * int array) list;
      (* with each T-node's accumulator slot, by node id *)
  slots : Schema.t array; (* the wanted T-targets' schemas *)
  runs : (Twopp.plan * int) list; (* a plan into a wanted target, its slot *)
  head_schema : Schema.t;
  n_plans : int; (* every plan of every rule, run or not *)
  empty_views : (Online_yannakakis.preprocessed * bool) list;
      (* each PMTD's [has_empty_view] when the plan was made *)
}

type t = {
  cqap : Cq.cqap;
  pmtds : Pmtd.t list;
  rules : Rule.t list;
  mutable base : (Cq.atom * Live.t) list;
      (* the one live, annotated relation per atom, in atom order: split
         by every rule's 2PP structure, written once per delta through
         [Live.add]/[remove], probed by cache invalidation and by the
         aggregate fallback, read whole by the aggregate tables; empty
         when loaded without "agg" *)
  structures : Twopp.t list;
  mutable preprocessed : (Pmtd.t * Online_yannakakis.preprocessed) list;
  mutable space : int;
  mutable cache : Cache.t option;
      (* workload-adaptive answer cache; None = disabled.  Charged
         against its own budget, not [space] — [space] stays the
         intrinsic S-view footprint the paper's bound talks about. *)
  mutable epoch : int;
      (* number of effective base-tuple deltas applied since build;
         recorded in snapshots so a replica can tell stale from fresh *)
  mutable thawed : bool;
      (* S-views re-materialized unreduced for incremental maintenance *)
  mutable agg : agg_state option;
      (* semiring aggregate answering over [base]; None until
         [enable_agg] (or a snapshot with an "agg" section) *)
  mutable serving : serving;
      (* made at build, load and thaw, and again after a delta that
         delegates a new plan or changes whether a PMTD has an empty
         S-view *)
}

(* Carry the per-domain simplex pivot counter across the pool's worker
   domains: capture each worker's local total, merge it into the parent
   after the join, so pivot counts stay exact under any job count. *)
let () =
  Pool.register_worker_hook (fun () ->
      let n = Simplex.pivot_count () in
      fun () -> Simplex.add_pivots n)

let cqap t = t.cqap
let pmtds t = t.pmtds
let rules t = t.rules
let space t = t.space
let structures t = t.structures
let cache t = t.cache

let attach_cache t ~budget =
  t.cache <- (if budget <= 0 then None else Some (Cache.create ~budget ()))

let cache_space t = match t.cache with None -> 0 | Some c -> Cache.used c
let cache_budget t = match t.cache with None -> 0 | Some c -> Cache.budget c
let cache_stats t = Option.map Cache.stats t.cache

let per_pmtd_space t =
  List.map (fun (p, oy) -> (p, Online_yannakakis.space oy)) t.preprocessed

let materialized_rows t =
  List.fold_left
    (fun acc (_, oy) -> acc + Online_yannakakis.logical_rows oy)
    0 t.preprocessed

let factorized_views t =
  List.fold_left
    (fun acc (_, oy) ->
      acc + List.length (Online_yannakakis.factorized_views oy))
    0 t.preprocessed

let access_schema t = Schema.of_list (Varset.to_list t.cqap.Cq.access)

let schema_of_set b = Schema.of_list (Varset.to_list b)

let serving_of cqap structures preprocessed =
  let plans = List.concat_map Twopp.plans structures in
  let delegated b =
    List.exists (fun p -> Varset.equal (Twopp.plan_target p) b) plans
  in
  let t_vars p =
    List.map (fun (v : Pmtd.view) -> v.Pmtd.vars) (Pmtd.t_views p)
  in
  let answering =
    List.filter
      (fun (p, oy) ->
        (not (Online_yannakakis.has_empty_view oy))
        && List.for_all delegated (t_vars p))
      preprocessed
  in
  let wanted =
    List.sort_uniq Varset.compare
      (List.concat_map (fun (p, _) -> t_vars p) answering)
  in
  let slot b =
    let rec find i = function
      | [] -> None
      | b' :: rest -> if Varset.equal b b' then Some i else find (i + 1) rest
    in
    find 0 wanted
  in
  {
    answering =
      List.map
        (fun (p, oy) ->
          ( p,
            oy,
            Array.init (Td.size p.Pmtd.td) (fun node ->
                Option.value ~default:(-1)
                  (slot (Pmtd.view p node).Pmtd.vars)) ))
        answering;
    slots = Array.of_list (List.map schema_of_set wanted);
    runs =
      List.filter_map
        (fun p -> Option.map (fun i -> (p, i)) (slot (Twopp.plan_target p)))
        plans;
    head_schema = schema_of_set cqap.Cq.cq.Cq.head;
    n_plans = List.length plans;
    empty_views =
      List.map
        (fun (_, oy) -> (oy, Online_yannakakis.has_empty_view oy))
        preprocessed;
  }

let refresh_serving t =
  t.serving <- serving_of t.cqap t.structures t.preprocessed

(* A delta changes which PMTDs answer only by delegating a new plan or
   by filling or emptying a PMTD's last empty S-view (or its first) *)
let serving_stale t =
  let sv = t.serving in
  List.fold_left (fun n s -> n + List.length (Twopp.plans s)) 0 t.structures
  <> sv.n_plans
  || List.exists
       (fun (oy, empty) -> Online_yannakakis.has_empty_view oy <> empty)
       sv.empty_views

let answering_pmtds t = List.map (fun (p, _, _) -> p) t.serving.answering
let plans_per_answer t = List.length t.serving.runs

(* the serving plan as span attributes *)
let serving_attrs t =
  Obs.set_attr "answering_pmtds"
    (Json.List
       (List.map
          (fun p -> Json.String (Format.asprintf "%a" Pmtd.pp p))
          (answering_pmtds t)));
  Obs.set_attr "plans_per_answer" (Json.Int (plans_per_answer t))

(* union of the stored S-target relations whose schema equals [b], at
   build and thaw *)
let view_of_targets targets b =
  let empty = Relation.create (schema_of_set b) in
  List.fold_left
    (fun acc (b', rel) -> if Varset.equal b b' then Relation.union acc rel else acc)
    empty targets

(* Parallel map over the domain pool for build phases.  Each task runs
   under its own Obs context (worker domains have isolated DLS traces),
   adopted back in input order — so the trace, like the results and the
   Cost counters, is independent of the job count. *)
let pmap f xs =
  match xs with
  | [] | [ _ ] -> List.map f xs
  | xs ->
      let tasks = List.map (fun x -> (x, Obs.create_context ())) xs in
      let res =
        Pool.map (fun (x, ctx) -> Obs.with_context ctx (fun () -> f x)) tasks
      in
      List.iter (fun (_, ctx) -> Obs.adopt ctx) tasks;
      res

(* One PMTD's Online Yannakakis state over the union of the rules'
   stored S-targets: semijoin-reduced (and possibly factorized) views at
   build, live ones once thawed for maintenance. *)
let preprocess_pmtd ~thawed s_targets p =
  let s_views node = view_of_targets s_targets (Pmtd.view p node).Pmtd.vars in
  (p, Online_yannakakis.preprocess ~thawed p ~s_views)

let views_space preprocessed =
  List.fold_left
    (fun acc (_, oy) -> acc + Online_yannakakis.space oy)
    0 preprocessed

let base_of_db db cqap =
  List.map
    (fun a -> (a, Live.of_relation (Db.relation db a)))
    cqap.Cq.cq.Cq.atoms

let build ?(counted = false) cqap pmtd_list ~db ~budget =
  Obs.span "engine.build" ~attrs:[ ("budget", Json.Int budget) ] @@ fun () ->
  let rules = Rule.generate cqap pmtd_list in
  Obs.set_attr "pmtds" (Json.Int (List.length pmtd_list));
  Obs.set_attr "rules" (Json.Int (List.length rules));
  Obs.set_attr "jobs" (Json.Int (Pool.jobs ()));
  let base = base_of_db db cqap in
  (* phase 1: the 2PP structure of every rule, in parallel across rules
     (each reads the shared base and writes only its own structure) *)
  let structures = pmap (fun r -> Twopp.build ~counted r ~base ~budget) rules in
  (* phase 2: Yannakakis preprocessing, in parallel across PMTDs (reads
     the shared S-targets, writes only per-PMTD state) *)
  let preprocessed =
    let s_targets = List.concat_map Twopp.s_targets structures in
    Cost.with_counting counted (fun () ->
        pmap (preprocess_pmtd ~thawed:false s_targets) pmtd_list)
  in
  let space = views_space preprocessed in
  Obs.set_attr "space" (Json.Int space);
  Obs.set_attr "pmtd_space"
    (Json.List
       (List.map
          (fun (_, oy) -> Json.Int (Online_yannakakis.space oy))
          preprocessed));
  let t =
    {
      cqap;
      pmtds = pmtd_list;
      rules;
      base;
      structures;
      preprocessed;
      space;
      cache = None;
      epoch = 0;
      thawed = false;
      agg = None;
      serving = serving_of cqap structures preprocessed;
    }
  in
  serving_attrs t;
  t

let build_auto ?counted ?max_pmtds cqap ~db ~budget =
  build ?counted cqap (Enum.pmtds ?max_pmtds cqap) ~db ~budget

(* The online pipeline without observability wrapping.  One
   accumulator per wanted T-target: the plans into it write their rows
   there, and every answering PMTD whose T-node has those variables
   reads it as that T-view.  Each PMTD's ψ goes into the one answer
   relation.  Returns the scoped online cost. *)
let answer_scoped t ~q_a =
  let sv = t.serving in
  Cost.scoped (fun () ->
      let accs = Array.map Relation.create sv.slots in
      List.iter (fun (p, i) -> Twopp.run_into p ~q_a ~into:accs.(i)) sv.runs;
      let into = Relation.create sv.head_schema in
      List.iter
        (fun (_, oy, slot) ->
          ignore
            (Online_yannakakis.answer ~into oy
               ~t_views:(fun node -> accs.(slot.(node)))
               ~q_a))
        sv.answering;
      into)

(* ------------------------------------------------------------------ *)
(* batched answering                                                    *)
(* ------------------------------------------------------------------ *)

(* [share total n i] — the i-th request's even share of a batch-shared
   snapshot: quotient everywhere, remainder distributed one op at a time
   to the earliest requests, so shares sum exactly to [total]. *)
let share total n i =
  let part v = (v / n) + if i < v mod n then 1 else 0 in
  {
    Cost.probes = part total.Cost.probes;
    tuples = part total.Cost.tuples;
    scans = part total.Cost.scans;
  }

let answer_batch t reqs =
  Obs.span "engine.answer_batch"
    ~attrs:[ ("requests", Json.Int (List.length reqs)) ]
  @@ fun () ->
  match reqs with
  | [] -> []
  | reqs ->
      let n = List.length reqs in
      let acc_schema = access_schema t in
      let acc_vars = Schema.vars acc_schema in
      let arity = Schema.arity acc_schema in
      (* canonical form of a request — tuples reordered to the access
         schema and sorted (Stt_cache.Key, shared with the answer
         cache so dedup and cache keying can never disagree) *)
      let keyed =
        List.map
          (fun q ->
            let rows = Ckey.canon ~access:acc_schema q in
            (Ckey.encode ~arity rows, rows, q))
          reqs
      in
      let first_idx = Hashtbl.create 16 in
      let uniq = ref [] in
      List.iteri
        (fun i (key, rows, q) ->
          if not (Hashtbl.mem first_idx key) then begin
            Hashtbl.add first_idx key i;
            uniq := (key, rows, q) :: !uniq
          end)
        keyed;
      let uniq = List.rev !uniq in
      let head = t.cqap.Cq.cq.Cq.head in
      let sliceable = Varset.subset t.cqap.Cq.access head in
      Obs.set_attr "unique" (Json.Int (List.length uniq));
      (* per unique request: its answer and the marginal cost of the
         first evaluation; [shared] is the batch-shared cost *)
      let results = Hashtbl.create 16 in
      (* the failed cache probe of a miss, folded into that request's
         marginal below *)
      let miss_lookup = Hashtbl.create 16 in
      let shared = ref Cost.zero in
      let misses =
        match t.cache with
        | None -> uniq
        | Some cache ->
            List.filter
              (fun (key, _, _) ->
                match Cost.scoped (fun () -> Cache.find cache key) with
                | Some r, c ->
                    Hashtbl.add results key (r, c);
                    false
                | None, c ->
                    Hashtbl.add miss_lookup key c;
                    true)
              uniq
      in
      Obs.set_attr "cache_hits"
        (Json.Int (List.length uniq - List.length misses));
      Obs.set_attr "sliced" (Json.Bool (sliceable && List.length misses > 1));
      if sliceable && List.length misses > 1 then begin
        (* access ⊆ head: answer the union of all requests once, then
           slice each request's answer back out.  Sound because
           answer(q) = {h ∈ answer(∪ q_j) : h[access] ∈ q} when the
           access variables survive into the head.  The combined answer
           is grouped by its access-variable values once (shared), so a
           slice costs one probe per request tuple plus its output. *)
        let (head_schema, groups), shared_cost =
          Cost.scoped (fun () ->
              let combined = Relation.create acc_schema in
              List.iter
                (fun (_, rows, _) -> List.iter (Relation.add combined) rows)
                misses;
              let result, _ = answer_scoped t ~q_a:combined in
              let head_schema = Relation.schema result in
              let pos = Schema.positions head_schema acc_vars in
              let scratch = Array.make (Array.length pos) 0 in
              let groups = Tuple.Tbl.create 64 in
              Relation.iter
                (fun tup ->
                  Cost.charge_scan ();
                  Tuple.project_into pos tup scratch;
                  match Tuple.Tbl.find_opt groups scratch with
                  | Some rows -> rows := tup :: !rows
                  | None ->
                      Tuple.Tbl.add groups (Array.copy scratch) (ref [ tup ]))
                result;
              (head_schema, groups))
        in
        shared := shared_cost;
        List.iter
          (fun (key, rows, _) ->
            let sliced, c =
              Cost.scoped (fun () ->
                  let out = Relation.create head_schema in
                  List.iter
                    (fun ktup ->
                      Cost.charge_probe ();
                      match Tuple.Tbl.find_opt groups ktup with
                      | Some rows -> List.iter (Relation.add out) !rows
                      | None -> ())
                    rows;
                  out)
            in
            Hashtbl.add results key (sliced, c))
          misses
      end
      else
        (* access pattern not in the head (or a single distinct miss):
           evaluate each unique request once; duplicates still share *)
        List.iter
          (fun (key, _, q) ->
            let r, c = answer_scoped t ~q_a:q in
            Hashtbl.add results key (r, c))
          misses;
      (* install the freshly evaluated answers for the next batch *)
      (match t.cache with
      | None -> ()
      | Some cache ->
          List.iter
            (fun (key, rows, _) ->
              match Hashtbl.find_opt results key with
              | Some (r, _) ->
                  Cache.add cache ~key ~key_tuples:(List.length rows) r
              | None -> ())
            misses);
      (* input-order results; cost accounting: every request carries an
         even share of the batch-shared cost, the first occurrence of a
         request additionally carries its marginal evaluation cost (for
         a cache miss, including the failed cache probe) *)
      let answers =
        List.mapi
          (fun i (key, _, _) ->
            let r, marginal = Hashtbl.find results key in
            let c = share !shared n i in
            let c =
              if Hashtbl.find first_idx key = i then
                let lookup =
                  Option.value ~default:Cost.zero
                    (Hashtbl.find_opt miss_lookup key)
                in
                Cost.add (Cost.add c lookup) marginal
              else c
            in
            (r, c))
          keyed
      in
      if Obs.enabled () then
        Obs.observe "engine.answer.ops"
          (float_of_int
             (List.fold_left (fun acc (_, c) -> acc + Cost.total c) 0 answers));
      answers

(* a single request is a batch of one: same cache path, same op counts *)
let answer t ~q_a = fst (List.hd (answer_batch t [ q_a ]))

let answer_tuple t tup =
  let q_a = Relation.create (access_schema t) in
  Relation.add q_a tup;
  not (Relation.is_empty (answer t ~q_a))

(* ------------------------------------------------------------------ *)
(* semiring aggregates                                                  *)
(* ------------------------------------------------------------------ *)

(* schema of cached aggregate answers: a one-row, one-column relation
   holding the scalar (the variable id is arbitrary — the cache key's
   kind byte, not the schema, is what distinguishes it from tuple
   answers) *)
let scalar_schema = Schema.of_list [ 0 ]

let agg_enabled t = t.agg <> None
let agg_budget t = match t.agg with None -> 0 | Some st -> st.agg_budget
let agg_kinds t =
  match t.agg with None -> [] | Some st -> List.map fst st.agg_tables

let agg_complete t k =
  match t.agg with
  | None -> false
  | Some st -> (
      match List.assoc_opt k st.agg_tables with
      | Some tbl -> tbl.complete
      | None -> false)

let agg_table_size t =
  match t.agg with
  | None -> 0
  | Some st ->
      List.fold_left
        (fun acc (_, tbl) -> acc + Tuple.Tbl.length tbl.entries)
        0 st.agg_tables

(* Everything the engine holds, in one unit (stored singletons /
   entries): intrinsic S-view space, the answer cache's charged entries,
   and the aggregate tables' rows.  The single number trace JSON and the
   serve-net Health report. *)
let total_space t = t.space + cache_space t + agg_table_size t

let agg_state t =
  match t.agg with
  | Some st -> st
  | None -> failwith "Engine: aggregates not enabled (call enable_agg)"

let factors_of t k =
  List.map (fun (_, l) -> Agg_eval.of_relation k (Live.relation l)) t.base

(* Precompute the per-kind aggregate tables over the access variables by
   full offline elimination (uncounted — preprocessing time is not what
   the paper optimizes).  The COUNT table is always computed first: its
   per-key derivation counts are the work proxy that picks which access
   keys stay in the tables when the full table exceeds the budget (the
   heavy keys — exactly where online answering is expensive).  Partial
   tables are marked incomplete so misses fall back to the online
   sum-product instead of soundly-looking zeroes. *)
let build_agg_tables t ~kinds =
  match t.agg with
  | None -> ()
  | Some st ->
      Cost.with_counting false @@ fun () ->
      let access = access_schema t in
      let count_tbl =
        Agg_eval.table Semiring.Count (factors_of t Semiring.Count) ~access
      in
      let n = Tuple.Tbl.length count_tbl in
      let heavy =
        if n <= st.agg_budget then None
        else begin
          let all =
            Tuple.Tbl.fold (fun key c acc -> (key, c) :: acc) count_tbl []
          in
          (* ties broken by tuple order so the table is deterministic *)
          let sorted =
            List.sort
              (fun (ka, a) (kb, b) ->
                match compare b a with 0 -> Tuple.compare ka kb | c -> c)
              all
          in
          let keep = Tuple.Tbl.create (max 16 st.agg_budget) in
          List.iteri
            (fun i (key, _) ->
              if i < st.agg_budget then Tuple.Tbl.replace keep key ())
            sorted;
          Some keep
        end
      in
      let restrict tbl =
        match heavy with
        | None -> { complete = true; entries = tbl }
        | Some keep ->
            let entries = Tuple.Tbl.create (max 16 (Tuple.Tbl.length keep)) in
            Tuple.Tbl.iter
              (fun key v ->
                if Tuple.Tbl.mem keep key then Tuple.Tbl.replace entries key v)
              tbl;
            { complete = false; entries }
      in
      st.agg_tables <-
        List.map
          (fun k ->
            let tbl =
              if k = Semiring.Count then count_tbl
              else Agg_eval.table k (factors_of t k) ~access
            in
            (k, restrict tbl))
          kinds

(* The factors are the live base, so tables built after deltas are
   exact; [db] only supplies a base to an engine loaded without one. *)
let enable_agg ?(kinds = Semiring.all) t ~db ~budget =
  Obs.span "engine.enable_agg" ~attrs:[ ("budget", Json.Int budget) ]
  @@ fun () ->
  if budget < 0 then invalid_arg "Engine.enable_agg: negative budget";
  if t.base = [] then t.base <- base_of_db db t.cqap;
  t.agg <- Some { agg_budget = budget; agg_tables = [] };
  build_agg_tables t ~kinds;
  Obs.set_attr "table_rows" (Json.Int (agg_table_size t))

(* The online aggregate of canonical access rows.  A table hit charges
   one probe per request row plus one tuple per combined row — never
   less than what answering the same request from a materialized answer
   would charge.  Rows a dropped or partial table misses are collected
   and answered by one sum-product from them over the live base's
   indexes (counted: it is online work), so each costs its
   neighbourhood, not a pass over the base. *)
let answer_agg_scoped t k ~rows =
  let st = agg_state t in
  Cost.scoped (fun () ->
      let online light =
        let q = Relation.create (access_schema t) in
        List.iter (Relation.add q) light;
        Live.agg_from (Semiring.live k) q (List.map snd t.base)
      in
      match List.assoc_opt k st.agg_tables with
      | Some { complete; entries } ->
          let acc = ref (Semiring.zero k) in
          let light = ref [] in
          List.iter
            (fun row ->
              Cost.charge_probe ();
              match Tuple.Tbl.find_opt entries row with
              | Some v ->
                  Cost.charge_tuple ();
                  acc := Semiring.add k !acc v
              | None -> if not complete then light := row :: !light)
            rows;
          if !light <> [] then acc := Semiring.add k !acc (online !light);
          !acc
      | None -> online rows)

(* the materialize-then-fold reference at the same request: flat join of
   the annotated factors (request included), then ⊕-fold.  Counted —
   this is the baseline the benchmarks and the differential op-sanity
   check compare against. *)
let agg_baseline t k ~q_a =
  ignore (agg_state t) (* raises unless enabled *);
  Cost.scoped (fun () -> Agg_eval.brute k (factors_of t k) ~q_a)

let answer_agg t k ~q_a =
  Obs.span "engine.answer_agg"
    ~attrs:[ ("kind", Json.String (Semiring.name k)) ]
  @@ fun () ->
  let access = access_schema t in
  let rows = Ckey.canon ~access q_a in
  let kind = Semiring.to_tag k in
  let value, cost, via =
    match t.cache with
    | None ->
        let v, c = answer_agg_scoped t k ~rows in
        (v, c, "direct")
    | Some cache -> (
        let key = Ckey.encode ~kind ~arity:(Schema.arity access) rows in
        match Cost.scoped (fun () -> Cache.find cache key) with
        | Some r, c ->
            let v = Relation.fold (fun tup _ -> tup.(0)) r (Semiring.zero k) in
            (v, c, "hit")
        | None, lookup ->
            let v, c = answer_agg_scoped t k ~rows in
            (* the tropical sentinels (MIN's "no row" = [max_int], MAX's
               [min_int]) don't survive the cache's zigzag row codec, so
               empty-aggregate answers are recomputed rather than cached *)
            if v <> max_int && v <> min_int then begin
              let r =
                Cost.with_counting false (fun () ->
                    let r = Relation.create scalar_schema in
                    Relation.add r [| v |];
                    r)
              in
              Cache.add cache ~key ~key_tuples:(List.length rows) r
            end;
            (v, Cost.add lookup c, "miss"))
  in
  if Obs.enabled () then begin
    Obs.set_attr "cache" (Json.String via);
    Obs.set_attr "q_a" (Json.Int (Relation.cardinal q_a));
    Obs.observe "engine.answer_agg.ops" (float_of_int (Cost.total cost))
  end;
  (value, cost)

(* ------------------------------------------------------------------ *)
(* incremental maintenance                                              *)
(* ------------------------------------------------------------------ *)

let epoch t = t.epoch

let supports_maintenance t =
  t.structures <> [] && List.for_all Twopp.supports_maintenance t.structures

(* First delta against a built engine: re-materialize the S-views
   without the SS semijoin reduction (a pure space optimization that
   [answer] never depends on), because reduced views cannot absorb
   single-tuple deltas additively.  The conversion is charged as one
   scan per re-materialized view tuple — a one-time reorganization cost
   that lands on the first delta and amortizes over the stream. *)
let thaw t =
  if not t.thawed then begin
    let s_targets = List.concat_map Twopp.s_targets t.structures in
    t.preprocessed <-
      Cost.with_counting false (fun () ->
          List.map
            (fun (p, _) -> preprocess_pmtd ~thawed:true s_targets p)
            t.preprocessed);
    let space = views_space t.preprocessed in
    for _ = 1 to space do
      Cost.charge_scan ()
    done;
    t.space <- space;
    t.thawed <- true;
    refresh_serving t;
    Obs.incr "maintain.thaw"
  end

(* Drop the cached answers the delta of [tuple] to [rel] can change: an
   entry is stale when one of its access rows has a body derivation that
   uses the tuple at some atom of [rel] — a witness check per row and
   atom, with the tuple pinned at the atom and the other atoms probed in
   the live base.  A delete is checked before the base loses the tuple
   (the dying derivations), an insert after it has it (the new ones).
   Both answer kinds alike: a tuple answer and an aggregate over the
   same access row are both stale.  The work is bounded by the cache's
   budget, not by the size of the delta's join. *)
let invalidate_cache t ~rel ~tuple =
  match t.cache with
  | None -> ()
  | Some cache ->
      let access = Varset.to_list t.cqap.Cq.access in
      let pins =
        List.filter_map
          (fun ((a : Cq.atom), _) ->
            if a.Cq.rel <> rel then None
            else
              Some
                ( List.combine a.Cq.vars (Array.to_list tuple),
                  List.filter_map
                    (fun (a', l) -> if a' == a then None else Some l)
                    t.base ))
          t.base
      in
      let stale key =
        let _, _, rows = Ckey.decode key in
        List.exists
          (fun row ->
            let at = List.combine access (Array.to_list row) in
            List.exists
              (fun (pin, others) -> Live.exists (pin @ at) others)
              pins)
          rows
      in
      let n = Cache.invalidate cache stale in
      if n > 0 then Obs.incr ~by:n "cache.invalidate"

(* S-view routing: an S-view row change for target [b] lands on the live
   view of every materialized node whose view variables equal [b],
   across all PMTDs. *)
let views_for t b =
  List.concat_map
    (fun (p, oy) ->
      List.filter_map
        (fun (node, view) ->
          if Varset.equal (Pmtd.view p node).Pmtd.vars b then Some view
          else None)
        (Online_yannakakis.live_views oy))
    t.preprocessed

(* One validated delta.  A redundant one (inserting a present tuple,
   deleting an absent one) touches nothing, not even the thaw. *)
let apply_one t ~rel ~tuple ~add =
  let present =
    List.exists
      (fun ((a : Cq.atom), l) ->
        a.Cq.rel = rel && Relation.mem (Live.relation l) tuple)
      t.base
  in
  if add = present then false
  else begin
    thaw t;
    if not add then invalidate_cache t ~rel ~tuple;
    (* write the base and route the delta one atom at a time, in atom
       order, so each structure's delta joins for an atom see the
       earlier atoms of a self-joined relation updated and the later
       ones not *)
    let events =
      List.concat_map
        (fun ((atom : Cq.atom), l) ->
          if atom.Cq.rel <> rel then []
          else begin
            ignore (if add then Live.add l tuple else Live.remove l tuple);
            List.concat_map
              (fun s -> Twopp.apply_delta s ~atom ~tuple ~add)
              t.structures
          end)
        t.base
    in
    let inserts, deletes = List.partition (fun (_, _, sign) -> sign) events in
    List.iter
      (fun (b, row, _) ->
        List.iter (fun view -> ignore (Live.add view row)) (views_for t b))
      inserts;
    List.iter
      (fun (b, row, _) ->
        (* the row leaves the views only once no structure stores it *)
        if
          not
            (List.exists (fun s -> Twopp.stored_mem s b row) t.structures)
        then
          List.iter (fun view -> ignore (Live.remove view row)) (views_for t b))
      deletes;
    if serving_stale t then refresh_serving t;
    t.space <- views_space t.preprocessed;
    if add then invalidate_cache t ~rel ~tuple;
    (* the aggregates read the base, already updated (a delta carries
       no weight, so an inserted tuple takes the kind's default
       annotation); the precomputed tables are dropped, and aggregate
       requests fall back to the online sum-product until [enable_agg] *)
    (match t.agg with
    | Some st when st.agg_tables <> [] ->
        st.agg_tables <- [];
        Obs.incr "agg.tables_dropped"
    | _ -> ());
    t.epoch <- t.epoch + 1;
    true
  end

(* Every delta of the batch is checked before anything is written, so a
   malformed batch leaves the engine as it was. *)
let check_batch t deltas =
  List.iter
    (fun (rel, tuple, _) ->
      match
        List.filter (fun (a : Cq.atom) -> a.Cq.rel = rel) t.cqap.Cq.cq.Cq.atoms
      with
      | [] ->
          Printf.ksprintf failwith "Engine: delta against unknown relation %s"
            rel
      | atoms ->
          List.iter
            (fun (a : Cq.atom) ->
              if List.length a.Cq.vars <> Tuple.arity tuple then
                Printf.ksprintf failwith
                  "Engine: arity-%d delta for %d-ary relation %s"
                  (Tuple.arity tuple) (List.length a.Cq.vars) rel)
            atoms)
    deltas;
  if deltas <> [] && not (supports_maintenance t) then
    failwith
      "Engine: snapshot-loaded engines are static replicas and cannot \
       accept deltas"

let apply_deltas t deltas =
  Obs.span "engine.maintain"
    ~attrs:[ ("deltas", Json.Int (List.length deltas)) ]
  @@ fun () ->
  check_batch t deltas;
  let applied = ref 0 in
  let (), cost =
    Cost.scoped (fun () ->
        List.iter
          (fun (rel, tuple, add) ->
            if apply_one t ~rel ~tuple ~add then incr applied)
          deltas)
  in
  if Obs.enabled () then begin
    Obs.set_attr "applied" (Json.Int !applied);
    Obs.set_attr "epoch" (Json.Int t.epoch);
    Obs.incr ~by:cost.Cost.probes "maintain.probes";
    Obs.incr ~by:cost.Cost.tuples "maintain.tuples";
    Obs.incr ~by:cost.Cost.scans "maintain.scans";
    Obs.observe "engine.maintain.ops" (float_of_int (Cost.total cost))
  end;
  (!applied, cost)

let insert t rel tuple =
  let applied, cost = apply_deltas t [ (rel, tuple, true) ] in
  (applied > 0, cost)

let delete t rel tuple =
  let applied, cost = apply_deltas t [ (rel, tuple, false) ] in
  (applied > 0, cost)

(* ------------------------------------------------------------------ *)
(* snapshots                                                            *)
(* ------------------------------------------------------------------ *)

module Store = Stt_store.Store
module C = Stt_store.Codec

let format_version = 3

(* A snapshot holds rows and build decisions only: each structure writes
   its own bytes ([Relation], [Twopp], [Online_yannakakis]) and
   the sections below are the engine's own.  A decoder that meets an
   impossible structure raises [Codec.Corrupt], which the store layer
   surfaces as [Malformed] — a CRC-valid file is rejected at load time
   rather than failing later in [answer]. *)

(* annotated relations: the plain relation, then one presence flag (and
   value) per row in the sorted order [Relation.write] used *)
let write_annotated e rel =
  Relation.write e rel;
  List.iter
    (fun tup ->
      match Relation.annotation_opt rel tup with
      | Some v ->
          C.write_bool e true;
          C.write_value e v
      | None -> C.write_bool e false)
    (List.sort Tuple.compare (Relation.to_list rel))

let read_annotated d =
  let rel = Relation.read d in
  List.iter
    (fun tup -> if C.read_bool d then Relation.annotate rel tup (C.read_value d))
    (List.sort Tuple.compare (Relation.to_list rel));
  rel

let write_cqap e (q : Cq.cqap) =
  let cq = q.Cq.cq in
  C.write_uint e cq.Cq.n;
  C.write_list e (C.write_string e) (Array.to_list cq.Cq.var_names);
  Varset.write e cq.Cq.head;
  Varset.write e q.Cq.access;
  C.write_list e
    (fun (a : Cq.atom) ->
      C.write_string e a.Cq.rel;
      C.write_list e (C.write_uint e) a.Cq.vars)
    cq.Cq.atoms

let read_cqap d =
  let n = C.read_uint d in
  if n > 62 then C.corrupt "cqap: %d variables (max 62)" n;
  let var_names = Array.of_list (C.read_list d (fun () -> C.read_string d)) in
  if Array.length var_names <> n then C.corrupt "cqap: var_names length";
  let full = Varset.full n in
  let head = Varset.read ~within:full d in
  let access = Varset.read ~within:full d in
  let atoms =
    C.read_list d (fun () ->
        let rel = C.read_string d in
        let vars = C.read_list d (fun () -> C.read_uint d) in
        { Cq.rel; vars })
  in
  let cq = C.guard "cqap" (fun () -> Cq.create ~var_names ~head atoms) in
  (* [head] was normalized to contain [access] when the index was built,
     so [with_access] reconstructs the head verbatim *)
  C.guard "cqap access" (fun () -> Cq.with_access cq access)

let write_pmtd e (p : Pmtd.t) =
  let tree = p.Pmtd.td.Td.tree in
  let size = Rtree.size tree in
  C.write_uint e size;
  for i = 0 to size - 1 do
    C.write_int e (match Rtree.parent tree i with None -> -1 | Some q -> q)
  done;
  Array.iter (Varset.write e) p.Pmtd.td.Td.bags;
  Array.iter (C.write_bool e) p.Pmtd.materialized

let read_pmtd cqap d =
  let size = C.read_uint d in
  if size = 0 then C.corrupt "pmtd: empty tree";
  let parent = Array.make size 0 in
  for i = 0 to size - 1 do
    parent.(i) <- C.read_int d
  done;
  let full = Varset.full cqap.Cq.cq.Cq.n in
  let bags = Array.make size Varset.empty in
  for i = 0 to size - 1 do
    bags.(i) <- Varset.read ~within:full d
  done;
  let materialized = Array.make size false in
  for i = 0 to size - 1 do
    materialized.(i) <- C.read_bool d
  done;
  let tree = C.guard "pmtd tree" (fun () -> Rtree.create ~parent) in
  let td = C.guard "pmtd td" (fun () -> Td.create tree bags) in
  match Pmtd.create cqap td ~materialized with
  | Ok p -> p
  | Error msg -> C.corrupt "pmtd: %s" msg

let write_rule e (r : Rule.t) =
  C.write_list e (Varset.write e) r.Rule.s_targets;
  C.write_list e (Varset.write e) r.Rule.t_targets

let read_rule cqap d =
  let full = Varset.full cqap.Cq.cq.Cq.n in
  let s_targets = C.read_list d (fun () -> Varset.read ~within:full d) in
  let t_targets = C.read_list d (fun () -> Varset.read ~within:full d) in
  C.guard "rule" (fun () -> Rule.make cqap ~s_targets ~t_targets)

let save t path =
  Obs.span "engine.save" ~attrs:[ ("path", Json.String path) ] @@ fun () ->
  Cost.with_counting false @@ fun () ->
  let sections =
    [
      ("cqap", fun e -> write_cqap e t.cqap);
      ("pmtds", fun e -> C.write_list e (write_pmtd e) t.pmtds);
      ("rules", fun e -> C.write_list e (write_rule e) t.rules);
      ("twopp", fun e -> C.write_list e (Twopp.write e) t.structures);
      ( "yannakakis",
        fun e ->
          C.write_list e
            (fun (_, oy) -> Online_yannakakis.write e oy)
            t.preprocessed );
      ( "summary",
        fun e ->
          C.write_uint e t.space;
          C.write_uint e (List.length t.pmtds);
          C.write_uint e (List.length t.rules) );
    ]
  in
  (* optional section: the delta epoch.  Written only after the engine
     has absorbed deltas; a replica uses it to tell stale from fresh. *)
  let sections =
    if t.epoch = 0 then sections
    else sections @ [ ("epoch", fun e -> C.write_uint e t.epoch) ]
  in
  (* optional section: a warm answer cache, written only when one is
     attached *)
  let sections =
    match t.cache with
    | None -> sections
    | Some cache ->
        sections
        @ [
            ( "cache",
              fun e ->
                C.write_uint e (Cache.budget cache);
                C.write_uint e (Cache.stripes cache);
                C.write_list e
                  (fun (key, _, rel) ->
                    C.write_string e key;
                    (* the key's kind byte picks the value layout: tuple
                       answers are relations, aggregate answers a single
                       scalar (whose tropical sentinels write_rows could
                       not encode) *)
                    match Ckey.decode key with
                    | 0, _, _ -> Relation.write e rel
                    | _ ->
                        C.write_value e
                          (Relation.fold (fun tup _ -> tup.(0)) rel 0))
                  (Cache.export cache) );
          ]
  in
  (* optional section: semiring aggregate state — the annotated base
     relations (the factors) and the precomputed per-kind tables, so a
     snapshot-shipped replica serves aggregates without the database *)
  let sections =
    match t.agg with
    | None -> sections
    | Some st ->
        let access_arity = Schema.arity (access_schema t) in
        sections
        @ [
            ( "agg",
              fun e ->
                C.write_uint e st.agg_budget;
                C.write_list e
                  (fun ((a : Cq.atom), l) ->
                    C.write_string e a.Cq.rel;
                    write_annotated e (Live.relation l))
                  t.base;
                C.write_list e
                  (fun (k, { complete; entries }) ->
                    C.write_u8 e (Semiring.to_tag k);
                    C.write_bool e complete;
                    let rows =
                      List.sort
                        (fun (a, _) (b, _) -> Tuple.compare a b)
                        (Tuple.Tbl.fold
                           (fun key v acc -> (key, v) :: acc)
                           entries [])
                    in
                    C.write_rows e ~arity:access_arity (List.map fst rows);
                    List.iter (fun (_, v) -> C.write_value e v) rows)
                  st.agg_tables );
          ]
  in
  match Store.write ~version:format_version path sections with
  | Ok bytes as ok ->
      Obs.incr ~by:bytes "snapshot.write.bytes";
      Obs.set_attr "bytes" (Json.Int bytes);
      ok
  | Error _ as e -> e

let ( let* ) = Result.bind

(* decode in file-section order, pairing aligned sections (structures
   with rules, preprocessed state with PMTDs) by position; [fold_left]
   fixes the evaluation order the shared decoder requires *)
let map_in_order f xs d =
  let n = C.read_uint d in
  if n <> List.length xs then
    C.corrupt "aligned section: %d entries for %d owners" n (List.length xs);
  List.rev (List.fold_left (fun acc x -> f x d :: acc) [] xs)

let load path =
  Obs.span "engine.load" ~attrs:[ ("path", Json.String path) ] @@ fun () ->
  Cost.with_counting false @@ fun () ->
  let* r = Store.Reader.load ~version:format_version path in
  let bytes = Store.Reader.bytes r in
  Obs.incr ~by:bytes "snapshot.read.bytes";
  Obs.set_attr "bytes" (Json.Int bytes);
  let* cqap = Store.Reader.section r "cqap" read_cqap in
  let* pmtds =
    Store.Reader.section r "pmtds" (fun d ->
        C.read_list d (fun () -> read_pmtd cqap d))
  in
  let* rules =
    Store.Reader.section r "rules" (fun d ->
        C.read_list d (fun () -> read_rule cqap d))
  in
  let* structures =
    Store.Reader.section r "twopp" (map_in_order Twopp.read rules)
  in
  let* preprocessed =
    Store.Reader.section r "yannakakis"
      (map_in_order (fun p d -> (p, Online_yannakakis.read p d)) pmtds)
  in
  let space = views_space preprocessed in
  let* () =
    Store.Reader.section r "summary" (fun d ->
        let stored_space = C.read_uint d in
        let np = C.read_uint d in
        let nr = C.read_uint d in
        if np <> List.length pmtds then C.corrupt "summary: pmtd count mismatch";
        if nr <> List.length rules then C.corrupt "summary: rule count mismatch";
        if stored_space <> space then
          C.corrupt "summary: space %d but loaded S-views hold %d" stored_space
            space)
  in
  (* the cache section is optional; its keys must be canonical
     encodings over the access schema and its answers must live over the
     head schema, or a hit would silently return a wrong or
     differently-shaped answer *)
  let* cache =
    if not (List.mem "cache" (Store.Reader.section_names r)) then Ok None
    else
      Store.Reader.section r "cache" (fun d ->
          let budget = C.read_uint d in
          let stripes = C.read_uint d in
          if budget <= 0 then C.corrupt "cache: non-positive budget";
          if stripes <= 0 || stripes > 4096 then
            C.corrupt "cache: %d stripes out of range" stripes;
          let access = schema_of_set cqap.Cq.access in
          let head_schema = schema_of_set cqap.Cq.cq.Cq.head in
          let cache = Cache.create ~stripes ~budget () in
          let entries =
            C.read_list d (fun () ->
                let key = C.read_string d in
                (* a Short inside the nested key string is a malformed
                   section, not a truncated file *)
                let kind, arity, rows =
                  try Ckey.decode key
                  with C.Short _ -> C.corrupt "cache key: truncated encoding"
                in
                if kind <> 0 && Semiring.of_tag kind = None then
                  C.corrupt "cache key: unknown answer kind %d" kind;
                if arity <> Schema.arity access then
                  C.corrupt "cache key: arity %d for a %d-ary access" arity
                    (Schema.arity access);
                if not (String.equal (Ckey.encode ~kind ~arity rows) key) then
                  C.corrupt "cache key: not in canonical form";
                let rel =
                  if kind = 0 then begin
                    let rel = Relation.read d in
                    if not (Schema.equal (Relation.schema rel) head_schema)
                    then C.corrupt "cache entry: schema differs from the head";
                    rel
                  end
                  else begin
                    (* aggregate answers are stored as a bare scalar *)
                    let v = C.read_value d in
                    let rel = Relation.create scalar_schema in
                    Relation.add rel [| v |];
                    rel
                  end
                in
                (key, List.length rows, rel))
          in
          List.iter
            (fun (key, key_tuples, rel) ->
              Cache.install cache ~key ~key_tuples rel)
            entries;
          Some cache)
  in
  let* epoch =
    if not (List.mem "epoch" (Store.Reader.section_names r)) then Ok 0
    else
      Store.Reader.section r "epoch" (fun d ->
          let epoch = C.read_uint d in
          if epoch = 0 then C.corrupt "epoch: zero epoch should be omitted";
          epoch)
  in
  (* the agg section is optional; a replica that loads one takes its
     factors as the base and serves aggregates without ever seeing the
     database *)
  let* base, agg =
    if not (List.mem "agg" (Store.Reader.section_names r)) then Ok ([], None)
    else
      Store.Reader.section r "agg" (fun d ->
          let agg_budget = C.read_uint d in
          let atoms = cqap.Cq.cq.Cq.atoms in
          let factors =
            C.read_list d (fun () ->
                let name = C.read_string d in
                (name, read_annotated d))
          in
          if List.length factors <> List.length atoms then
            C.corrupt "agg: %d factors for %d atoms" (List.length factors)
              (List.length atoms);
          let base =
            List.map2
              (fun (a : Cq.atom) (name, rel) ->
                if not (String.equal name a.Cq.rel) then
                  C.corrupt "agg factor: %s where atom %s expected" name
                    a.Cq.rel;
                if
                  not
                    (Schema.equal (Relation.schema rel)
                       (Schema.of_list a.Cq.vars))
                then
                  C.corrupt "agg factor %s: schema differs from the atom" name;
                (a, Live.of_relation rel))
              atoms factors
          in
          let access_arity = Varset.cardinal cqap.Cq.access in
          let seen = Hashtbl.create 8 in
          let agg_tables =
            C.read_list d (fun () ->
                let tag = C.read_u8 d in
                let k =
                  match Semiring.of_tag tag with
                  | Some k -> k
                  | None -> C.corrupt "agg table: unknown kind tag %d" tag
                in
                if Hashtbl.mem seen tag then
                  C.corrupt "agg table: duplicate kind %s" (Semiring.name k);
                Hashtbl.add seen tag ();
                let complete = C.read_bool d in
                let keys = C.read_rows d ~arity:access_arity in
                let entries = Tuple.Tbl.create (max 16 (List.length keys)) in
                List.iter
                  (fun key ->
                    let v = C.read_value d in
                    if Tuple.Tbl.mem entries key then
                      C.corrupt "agg table: duplicate access key";
                    Tuple.Tbl.replace entries key v)
                  keys;
                (k, { complete; entries }))
          in
          (base, Some { agg_budget; agg_tables }))
  in
  Obs.set_attr "space" (Json.Int space);
  Obs.set_attr "epoch" (Json.Int epoch);
  let t =
    {
      cqap;
      pmtds;
      rules;
      base;
      structures;
      preprocessed;
      space;
      cache;
      epoch;
      (* a snapshot of a thawed engine stores the unreduced views; the
         flag only matters for further maintenance, which imported
         structures reject anyway *)
      thawed = epoch > 0;
      agg;
      serving = serving_of cqap structures preprocessed;
    }
  in
  serving_attrs t;
  Ok t
