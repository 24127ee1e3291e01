module Obs = Stt_obs.Obs
module Frame = Stt_net.Frame
module Client = Stt_net.Client
module Core = Stt_net.Core
module Semiring = Stt_semiring.Semiring
module Cost = Stt_relation.Cost

(* The router role: speaks the same frame protocol to clients as a
   replica, but answers by scattering each request across the shard
   ring and merging what the shards reply.

   Placement: every access tuple is keyed by its canonical bytes
   (Stt_cache.Key.of_tuple) and owned by Ring.owner of that key — the
   same equivalence that dedups batches and keys caches, so a permuted
   but equal request lands on the same shard and the same warm cache
   entry.  Replicas are full snapshots (the partition buys cache
   locality and parallelism, not capacity splitting), which is what
   makes failover sound: any shard can answer any tuple, so when a
   shard drains mid-batch the router re-routes its tuples to the next
   distinct owner on the ring and no answer is lost or duplicated —
   answering is read-only, hence idempotent under retry.

   Tuple answers and aggregates share one scatter-gather and differ
   only in the merge: a tuple's answer goes back to its request index
   with the op-count snapshot its shard measured, verbatim; an
   aggregate ⊕-folds the shards' partial scalars and sums their
   costs. *)

type endpoint = { name : string; host : string; port : int }

(* per-shard connection pool; a worker leases a connection for one rpc
   (connections are single-in-flight), broken ones are closed instead of
   returned *)
type upstream = {
  ep : endpoint;
  um : Mutex.t;
  mutable free : Client.t list;
  mutable last_uptime_ns : int; (* -1 = never seen *)
}

type t = {
  core : Core.t;
  ring_m : Mutex.t;
  mutable ring : Ring.t;
  ups_m : Mutex.t;
  upstreams : (string, upstream) Hashtbl.t;
  restarts : int Atomic.t;
  shard_errors : int Atomic.t;
  retried_tuples : int Atomic.t;
}

let ring t = Mutex.protect t.ring_m (fun () -> t.ring)
let shards t = Ring.shards (ring t)
let restarts t = Atomic.get t.restarts

let upstream_of t name =
  Mutex.protect t.ups_m (fun () -> Hashtbl.find_opt t.upstreams name)

(* [`Pooled] connections may be stale — the shard can have restarted
   behind an idle pool — so callers treat their failures as retryable;
   only a [`Fresh] dial's failure condemns the shard *)
let acquire_conn' t name =
  match upstream_of t name with
  | None -> Error (Frame.Io_error (Printf.sprintf "unknown shard %S" name))
  | Some up -> (
      let pooled =
        Mutex.protect up.um (fun () ->
            match up.free with
            | c :: rest ->
                up.free <- rest;
                Some c
            | [] -> None)
      in
      match pooled with
      | Some c -> Ok (c, `Pooled)
      | None ->
          Result.map
            (fun c -> (c, `Fresh))
            (Client.connect ~host:up.ep.host ~port:up.ep.port ()))

let acquire_conn t name = Result.map fst (acquire_conn' t name)

let release_conn t name c =
  match upstream_of t name with
  | None -> Client.close c
  | Some up -> Mutex.protect up.um (fun () -> up.free <- c :: up.free)

let close_pool up =
  let conns = Mutex.protect up.um (fun () ->
      let cs = up.free in
      up.free <- [];
      cs)
  in
  List.iter Client.close conns

(* ------------------------------------------------------------------ *)
(* scatter/gather                                                       *)
(* ------------------------------------------------------------------ *)

(* group (index, tuple) pairs by owning shard, preserving first-seen
   shard order; [excluded] shards (failed this request) are skipped in
   the preference walk *)
let group_items ring ~arity ~excluded items =
  let nshards = List.length (Ring.shards ring) in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let orphans = ref 0 in
  List.iter
    (fun ((_, tup) as item) ->
      let key = Stt_cache.Key.of_tuple ~arity tup in
      let owner =
        Ring.owners ring ~n:nshards key
        |> List.find_opt (fun s -> not (List.mem s excluded))
      in
      match owner with
      | None -> incr orphans
      | Some shard -> (
          match Hashtbl.find_opt tbl shard with
          | Some l -> l := item :: !l
          | None ->
              Hashtbl.add tbl shard (ref [ item ]);
              order := shard :: !order))
    items;
  let groups =
    List.rev_map (fun s -> (s, List.rev !(Hashtbl.find tbl s))) !order
  in
  (groups, !orphans)

(* one scatter round: send every group's sub-request ([sub] of its
   tuples) before receiving any reply, so the shards answer in parallel
   even though this worker is a single domain.  [partial] accepts the
   reply that completes a group; any other reply is a transport failure.
   Returns completed groups (a partial or a rejection) and failed ones
   (candidates for re-routing). *)
let scatter_round t ~sub ~partial groups =
  let sent = ref [] and failed = ref [] in
  List.iter
    (fun (shard, items) ->
      match acquire_conn t shard with
      | Error e -> failed := (shard, items, e) :: !failed
      | Ok c -> (
          match Client.send c (sub (List.map snd items)) with
          | Ok () -> sent := (shard, items, c) :: !sent
          | Error e ->
              Client.close c;
              failed := (shard, items, e) :: !failed))
    groups;
  let completed = ref [] in
  List.iter
    (fun (shard, items, c) ->
      match Client.recv c with
      | Ok (Frame.Rejected { reject; _ }) ->
          release_conn t shard c;
          completed := (items, Error reject) :: !completed
      | Ok resp -> (
          match partial items resp with
          | Some p ->
              release_conn t shard c;
              completed := (items, Ok p) :: !completed
          | None ->
              Client.close c;
              failed :=
                (shard, items, Frame.Malformed "unexpected shard response")
                :: !failed)
      | Error e ->
          Client.close c;
          failed := (shard, items, e) :: !failed)
    (List.rev !sent);
  (List.rev !completed, List.rev !failed)

(* Scatter [tuples] and [merge] each completed group's partial,
   re-routing transport failures to the next distinct owner until every
   tuple is merged, a shard rejects, or every shard has failed.  A
   failed group produced no partial and only its tuples are re-sent, so
   every tuple is merged exactly once.  A shard rejection
   (overload/deadline) rejects the whole client request: partial
   answers would corrupt the zero-loss accounting contract. *)
let scatter_gather t ~arity ~sub ~partial ~merge tuples =
  let rec rounds ~excluded ~round items =
    if items = [] then Ok ()
    else
      let rg = ring t in
      if Ring.is_empty rg then Error (Frame.Bad_request "shard ring is empty")
      else
        let groups, orphans = group_items rg ~arity ~excluded items in
        if orphans > 0 then
          Error
            (Frame.Bad_request
               (Printf.sprintf
                  "no reachable shard for %d tuples (%d shards failed)" orphans
                  (List.length excluded)))
        else
          let completed, failed = scatter_round t ~sub ~partial groups in
          let rejection =
            List.fold_left
              (fun rejection (items, outcome) ->
                match outcome with
                | Ok p ->
                    merge items p;
                    rejection
                | Error reject when Option.is_none rejection -> Some reject
                | Error _ -> rejection)
              None completed
          in
          match rejection with
          | Some reject -> Error reject
          | None when failed = [] -> Ok ()
          | None ->
              let failed_shards =
                List.sort_uniq String.compare
                  (List.map (fun (s, _, _) -> s) failed)
              in
              let retry = List.concat_map (fun (_, items, _) -> items) failed in
              Atomic.fetch_and_add t.shard_errors (List.length failed_shards)
              |> ignore;
              Atomic.fetch_and_add t.retried_tuples (List.length retry)
              |> ignore;
              if round > List.length (Ring.shards rg) then
                Error (Frame.Bad_request "shard retry limit exceeded")
              else
                rounds
                  ~excluded:(failed_shards @ excluded)
                  ~round:(round + 1) retry
  in
  rounds ~excluded:[] ~round:0 (List.mapi (fun i tup -> (i, tup)) tuples)

(* tuple answers: each group's answers go back to their request
   indices; every index is filled exactly once *)
let gather_answers t ~id ~deadline_us ~arity tuples =
  let results = Array.make (List.length tuples) None in
  scatter_gather t ~arity tuples
    ~sub:(fun tuples -> Frame.Answer { id; deadline_us; arity; tuples })
    ~partial:(fun items -> function
      | Frame.Answers { answers; _ }
        when List.length answers = List.length items ->
          Some answers
      | _ -> None)
    ~merge:(fun items answers ->
      List.iter2 (fun (i, _) a -> results.(i) <- Some a) items answers)
  |> Result.map (fun () ->
         let answers =
           Array.to_list results
           |> List.map (function
                | Some a -> a
                | None -> failwith "gather left a hole")
         in
         Frame.Answers { id; answers })

(* aggregates: the shards' partial scalars ⊕-fold with the semiring's
   combine operator (costs sum).  Sound because the request's tuples are
   partitioned across shards, every shard holds a full snapshot, and the
   aggregate is a semiring sum over derivations grouped by access tuple
   — partials over disjoint tuple sets combine exactly. *)
let gather_agg t ~id ~deadline_us ~kind ~arity tuples =
  match Semiring.of_tag kind with
  | None ->
      Error (Frame.Bad_request (Printf.sprintf "unknown aggregate kind %d" kind))
  | Some k ->
      let value = ref (Semiring.zero k) and cost = ref Cost.zero in
      scatter_gather t ~arity tuples
        ~sub:(fun tuples -> Frame.Agg { id; deadline_us; kind; arity; tuples })
        ~partial:(fun _ -> function
          | Frame.Agg_reply { value; cost; _ } -> Some (value, cost)
          | _ -> None)
        ~merge:(fun _ (v, c) ->
          value := Semiring.add k !value v;
          cost := Cost.add !cost c)
      |> Result.map (fun () ->
             Frame.Agg_reply { id; value = !value; cost = !cost })

(* ------------------------------------------------------------------ *)
(* fleet health                                                         *)
(* ------------------------------------------------------------------ *)

let unreachable_health =
  {
    Frame.ready = false;
    space = 0;
    agg_space = 0;
    workers = 0;
    queue_capacity = 0;
    queue_depth = 0;
    uptime_ns = 0;
    cache = Frame.no_cache;
    io_backend = "unreachable";
    shards = [];
  }

(* A pooled connection can be stale — the shard may have restarted (on
   the same port) since it was leased out — so a failure on one is not
   evidence the shard is down.  Keep closing dead pooled conns and
   re-acquiring; the pool is finite, so this terminates at a fresh dial,
   whose verdict is authoritative. *)
let rec poll_shard_health t name =
  match acquire_conn' t name with
  | Error _ -> unreachable_health
  | Ok (c, provenance) -> (
      match Client.rpc c (Frame.Health { id = 0 }) with
      | Ok (Frame.Health_reply { health; _ }) -> (
          release_conn t name c;
          (* staleness check: a monotonic uptime that went backwards
             means this is a different process than last poll — its
             history (cache hit counts, etc.) does not continue ours *)
          match upstream_of t name with
          | None -> health
          | Some up ->
              if up.last_uptime_ns >= 0 && health.uptime_ns < up.last_uptime_ns
              then begin
                Atomic.incr t.restarts;
                Core.with_obs t.core (fun () -> Obs.incr "route.shard_restarts")
              end;
              up.last_uptime_ns <- health.Frame.uptime_ns;
              health)
      | Ok _ | Error _ -> (
          Client.close c;
          match provenance with
          | `Pooled -> poll_shard_health t name
          | `Fresh -> unreachable_health))

let fleet_health t =
  let names = shards t in
  let blocks = List.map (fun name -> (name, poll_shard_health t name)) names in
  let sum f = List.fold_left (fun acc (_, h) -> acc + f h) 0 blocks in
  let sum_cache f =
    List.fold_left (fun acc (_, h) -> acc + f h.Frame.cache) 0 blocks
  in
  {
    Frame.ready =
      blocks <> [] && List.for_all (fun (_, h) -> h.Frame.ready) blocks;
    space = sum (fun h -> h.Frame.space);
    agg_space = sum (fun h -> h.Frame.agg_space);
    workers = sum (fun h -> h.Frame.workers);
    queue_capacity = sum (fun h -> h.Frame.queue_capacity);
    queue_depth = sum (fun h -> h.Frame.queue_depth);
    uptime_ns = Core.uptime_ns t.core;
    cache =
      {
        Frame.cache_budget = sum_cache (fun c -> c.Frame.cache_budget);
        cache_used = sum_cache (fun c -> c.Frame.cache_used);
        cache_entries = sum_cache (fun c -> c.Frame.cache_entries);
        cache_hits = sum_cache (fun c -> c.Frame.cache_hits);
        cache_misses = sum_cache (fun c -> c.Frame.cache_misses);
      };
    io_backend = Core.io_backend t.core;
    shards = blocks;
  }

(* ------------------------------------------------------------------ *)
(* the role callback (runs on the IO domain — never blocks on shards)   *)
(* ------------------------------------------------------------------ *)

let handle_request t core conn ~now_ns req =
  match req with
  | Frame.Answer { id; arity; tuples; _ } ->
      Core.submit core conn ~now_ns req ~span:"route.request"
        ~counter:"route.requests" ~hist:"route.serve_us" (fun ~remaining_us ->
          gather_answers t ~id ~deadline_us:remaining_us ~arity tuples)
  | Frame.Agg { id; kind; arity; tuples; _ } ->
      Core.submit core conn ~now_ns req ~span:"route.agg" ~counter:"route.aggs"
        ~hist:"route.agg_us" (fun ~remaining_us ->
          gather_agg t ~id ~deadline_us:remaining_us ~kind ~arity tuples)
  | Frame.Update { id; _ } ->
      (* replicas serve static snapshot loads; there is no coherent way
         to apply a delta fleet-wide through this tier yet *)
      Core.note_received core;
      Core.note_bad core;
      Core.reply core conn
        (Frame.Rejected
           {
             id;
             reject = Frame.Bad_request "router does not accept updates";
           })
  | Frame.Stats { id } ->
      Core.reply core conn
        (Frame.Stats_reply { id; json = Core.trace_json core })
  | Frame.Health { id } ->
      (* polling every shard is blocking work — a worker job, not an
         IO-domain errand *)
      let job () =
        Core.reply core conn
          (Frame.Health_reply { id; health = fleet_health t })
      in
      if not (Core.enqueue core job) then
        Core.reply core conn
          (Frame.Health_reply
             {
               id;
               health =
                 {
                   unreachable_health with
                   Frame.io_backend = Core.io_backend core;
                   uptime_ns = Core.uptime_ns core;
                 };
             })

(* ------------------------------------------------------------------ *)
(* lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start ?host ~port ~workers ~queue_capacity ?io_backend ?(vnodes = 128)
    endpoints =
  if endpoints = [] then invalid_arg "Router.start: no shard endpoints";
  let names = List.map (fun ep -> ep.name) endpoints in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Router.start: duplicate shard names";
  let upstreams = Hashtbl.create 8 in
  List.iter
    (fun ep ->
      Hashtbl.replace upstreams ep.name
        { ep; um = Mutex.create (); free = []; last_uptime_ns = -1 })
    endpoints;
  (* the role state needs the core and the core's callback needs the
     role state; the knot is tied through an atomic box.  A request can
     only race the [set] below if a client guesses the ephemeral port
     before [start] returns — shed it like an overload if so. *)
  let t_box = Atomic.make None in
  let core =
    Core.start ?host ~port ~workers ~queue_capacity ?io_backend
      (fun core conn ~now_ns req ->
        match Atomic.get t_box with
        | Some t -> handle_request t core conn ~now_ns req
        | None -> (
            match req with
            | Frame.Answer { id; _ }
            | Frame.Agg { id; _ }
            | Frame.Update { id; _ }
            | Frame.Stats { id }
            | Frame.Health { id } ->
                Core.reply core conn
                  (Frame.Rejected { id; reject = Frame.Overloaded })))
  in
  let t =
    {
      core;
      ring_m = Mutex.create ();
      ring = Ring.create ~vnodes names;
      ups_m = Mutex.create ();
      upstreams;
      restarts = Atomic.make 0;
      shard_errors = Atomic.make 0;
      retried_tuples = Atomic.make 0;
    }
  in
  Atomic.set t_box (Some t);
  t

(* Remove the shard from the ring so no new tuple routes to it, then
   close its pooled connections.  Requests already in flight against it
   either complete (the shard's own SIGTERM drain answers queued jobs)
   or fail and re-route — the zero-loss drain test drives exactly this
   window. *)
let drain_shard t name =
  Mutex.protect t.ring_m (fun () -> t.ring <- Ring.remove t.ring name);
  match upstream_of t name with None -> () | Some up -> close_pool up

let shard_errors t = Atomic.get t.shard_errors
let retried_tuples t = Atomic.get t.retried_tuples
let port t = Core.port t.core
let io_backend t = Core.io_backend t.core
let stop t = Core.stop t.core
let stopping t = Core.stopping t.core
let stats t = Core.stats t.core
let trace_json t = Core.trace_json t.core

let wait t =
  let s = Core.wait t.core in
  Mutex.protect t.ups_m (fun () ->
      Hashtbl.iter (fun _ up -> close_pool up) t.upstreams);
  s
