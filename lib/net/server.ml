open Stt_relation
module Obs = Stt_obs.Obs

(* The replica role: engine-backed request handling layered on the
   role-agnostic Core (accept/IO-loop/drain, worker pool, byte path, and
   the job runner every queued request goes through, shared with the
   sharded tier's router).  What lives here is what only a replica
   does: the engine handlers, the RW lock that serializes updates
   against answers, and the Health block. *)

type handler =
  arity:int -> int array list -> (int array list * int * Cost.snapshot) list

type update_handler =
  Frame.update list -> (int * int * Cost.snapshot, string) result

type agg_handler = kind:int -> arity:int -> int array list -> int * Cost.snapshot

let engine_handler engine ~arity tuples =
  let module Engine = Stt_core.Engine in
  let schema = Engine.access_schema engine in
  if arity <> Schema.arity schema then
    failwith
      (Printf.sprintf "access arity %d, engine expects %d" arity
         (Schema.arity schema));
  let requests =
    List.map (fun tup -> Relation.of_list schema [ tup ]) tuples
  in
  Engine.answer_batch engine requests
  |> List.map (fun (rel, cost) ->
         let rows = List.sort Tuple.compare (Relation.to_list rel) in
         (rows, Schema.arity (Relation.schema rel), cost))

let engine_agg_handler engine ~kind ~arity tuples =
  let module Engine = Stt_core.Engine in
  let module Semiring = Stt_semiring.Semiring in
  let k =
    match Semiring.of_tag kind with
    | Some k -> k
    | None -> failwith (Printf.sprintf "unknown aggregate kind %d" kind)
  in
  let schema = Engine.access_schema engine in
  if arity <> Schema.arity schema then
    failwith
      (Printf.sprintf "access arity %d, engine expects %d" arity
         (Schema.arity schema));
  let q_a = Relation.of_list schema tuples in
  Engine.answer_agg engine k ~q_a

let engine_update_handler engine deltas =
  let module Engine = Stt_core.Engine in
  match
    Engine.apply_deltas engine
      (List.map
         (fun { Frame.urel; utuple; uadd } -> (urel, utuple, uadd))
         deltas)
  with
  | applied, cost -> Ok (Engine.epoch engine, applied, cost)
  | exception Failure msg -> Error msg

(* The engine (and its striped cache) is shared by every worker domain,
   so the IO domain can read occupancy and hit counts directly. *)
let engine_cache_info engine () =
  let module Engine = Stt_core.Engine in
  match Engine.cache_stats engine with
  | None -> Frame.no_cache
  | Some (s : Stt_cache.Cache.stats) ->
      {
        Frame.cache_budget = s.budget;
        cache_used = s.used;
        cache_entries = s.entries;
        cache_hits = s.hits;
        cache_misses = s.misses;
      }

type stats = Core.stats = {
  connections : int;
  received : int;
  answered : int;
  updated : int;
  rejected_overload : int;
  rejected_deadline : int;
  bad_requests : int;
}

(* ------------------------------------------------------------------ *)
(* writer-priority readers/writer lock: answers share the engine, an    *)
(* update gets it exclusively, and a waiting update blocks new answers  *)
(* so a steady answer stream cannot starve it                           *)
(* ------------------------------------------------------------------ *)

module Rw = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable readers : int;
    mutable writer : bool;
    mutable waiting_writers : int;
  }

  let create () =
    { m = Mutex.create (); c = Condition.create (); readers = 0;
      writer = false; waiting_writers = 0 }

  let read t f =
    Mutex.protect t.m (fun () ->
        while t.writer || t.waiting_writers > 0 do
          Condition.wait t.c t.m
        done;
        t.readers <- t.readers + 1);
    Fun.protect f ~finally:(fun () ->
        Mutex.protect t.m (fun () ->
            t.readers <- t.readers - 1;
            if t.readers = 0 then Condition.broadcast t.c))

  let write t f =
    Mutex.protect t.m (fun () ->
        t.waiting_writers <- t.waiting_writers + 1;
        while t.writer || t.readers > 0 do
          Condition.wait t.c t.m
        done;
        t.waiting_writers <- t.waiting_writers - 1;
        t.writer <- true);
    Fun.protect f ~finally:(fun () ->
        Mutex.protect t.m (fun () ->
            t.writer <- false;
            Condition.broadcast t.c))
end

type t = Core.t

(* ------------------------------------------------------------------ *)
(* the role callback (runs on the IO domain); each queued request's     *)
(* work runs on a worker through Core.submit                            *)
(* ------------------------------------------------------------------ *)

let handle_request ~rw ~handler ~update_handler ~agg_handler ~space ~agg_space
    ~cache_info core conn ~now_ns req =
  match req with
  | Frame.Answer { id; arity; tuples; _ } ->
      Core.submit core conn ~now_ns req ~span:"net.request"
        ~counter:"net.requests" ~hist:"net.serve_us" (fun ~remaining_us:_ ->
          let answers =
            Rw.read rw (fun () ->
                Obs.with_alloc "net.answer.alloc_bytes" (fun () ->
                    handler ~arity tuples))
          in
          let answers =
            List.map
              (fun (rows, row_arity, cost) -> { Frame.rows; row_arity; cost })
              answers
          in
          Ok (Frame.Answers { id; answers }))
  | Frame.Agg { id; kind; arity; tuples; _ } ->
      Core.submit core conn ~now_ns req ~span:"net.agg" ~counter:"net.aggs"
        ~hist:"net.agg_us" (fun ~remaining_us:_ ->
          match agg_handler with
          | None ->
              Error (Frame.Bad_request "this server does not serve aggregates")
          | Some ah ->
              let value, cost = Rw.read rw (fun () -> ah ~kind ~arity tuples) in
              Ok (Frame.Agg_reply { id; value; cost }))
  | Frame.Update { id; deltas } ->
      Core.submit core conn ~now_ns req ~span:"net.update"
        ~counter:"net.updates" ~hist:"net.update_us" (fun ~remaining_us:_ ->
          match update_handler with
          | None ->
              Error (Frame.Bad_request "this server does not accept updates")
          | Some uh -> (
              match Rw.write rw (fun () -> uh deltas) with
              | Ok (epoch, applied, cost) ->
                  Ok (Frame.Updated { id; epoch; applied; cost })
              | Error msg -> Error (Frame.Bad_request msg)))
  | Frame.Stats { id } ->
      Core.reply core conn
        (Frame.Stats_reply { id; json = Core.trace_json core })
  | Frame.Health { id } ->
      Core.reply core conn
        (Frame.Health_reply
           {
             id;
             health =
               {
                 Frame.ready = true;
                 space = space ();
                 agg_space = agg_space ();
                 workers = Core.workers core;
                 queue_capacity = Core.queue_capacity core;
                 queue_depth = Core.queue_depth core;
                 uptime_ns = Core.uptime_ns core;
                 cache = cache_info ();
                 io_backend = Core.io_backend core;
                 shards = [];
               };
           })

(* ------------------------------------------------------------------ *)
(* lifecycle (delegated)                                                *)
(* ------------------------------------------------------------------ *)

let start ?host ~port ~workers ~queue_capacity ?(space = fun () -> 0)
    ?(agg_space = fun () -> 0) ?(cache_info = fun () -> Frame.no_cache)
    ?update_handler ?agg_handler ?io_backend handler =
  let rw = Rw.create () in
  Core.start ?host ~port ~workers ~queue_capacity ?io_backend
    (handle_request ~rw ~handler ~update_handler ~agg_handler ~space
       ~agg_space ~cache_info)

let port = Core.port
let io_backend = Core.io_backend
let stop = Core.stop
let stopping = Core.stopping
let wait = Core.wait
let stats = Core.stats
let trace_json = Core.trace_json
