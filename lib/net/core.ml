module Obs = Stt_obs.Obs
module Json = Stt_obs.Json
module Codec = Stt_store.Codec

(* Role-agnostic serving core, extracted from the original Server so the
   sharded tier's router (Stt_shard.Router) and the replica role share
   one accept/IO-loop/drain implementation instead of two copies.

   The core owns everything about moving frames: the listening socket,
   the Evloop readiness loop on its IO domain, per-connection pooled
   read/pending-write buffers, the bounded job queue and worker-domain
   pool, worker->IO signalling (write interest, condemned connections),
   the wake pipe, graceful drain, and the protocol-level counters — and
   the one job runner ([submit]) every queued request of either role
   goes through, so shedding, deadlines, per-job Obs, the reply and the
   counters exist once.  What it does NOT know is what a request
   *means*: every decoded request is handed to the role's [handle]
   callback (on the IO domain), which replies inline via [reply] or
   hands [submit] the work that answers it.  Role state — an engine and
   its RW lock, or a shard ring and upstream connections — lives in the
   closures the role passes in. *)

type stats = {
  connections : int;
  received : int;
  answered : int;
  updated : int;
  rejected_overload : int;
  rejected_deadline : int;
  bad_requests : int;
}

(* ------------------------------------------------------------------ *)
(* bounded job queue: non-blocking push (full -> shed), blocking pop    *)
(* ------------------------------------------------------------------ *)

module Bq = struct
  type 'a t = {
    q : 'a Queue.t;
    cap : int;
    m : Mutex.t;
    c : Condition.t;
    mutable closed : bool;
  }

  let create cap =
    { q = Queue.create (); cap; m = Mutex.create (); c = Condition.create ();
      closed = false }

  let try_push t x =
    Mutex.protect t.m (fun () ->
        if t.closed || Queue.length t.q >= t.cap then false
        else begin
          Queue.push x t.q;
          Condition.signal t.c;
          true
        end)

  (* blocks until an element arrives; [None] once closed and drained *)
  let pop t =
    Mutex.protect t.m (fun () ->
        let rec go () =
          if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
          else if t.closed then None
          else begin
            Condition.wait t.c t.m;
            go ()
          end
        in
        go ())

  let depth t = Mutex.protect t.m (fun () -> Queue.length t.q)

  let close t =
    Mutex.protect t.m (fun () ->
        t.closed <- true;
        Condition.broadcast t.c)
end

(* ------------------------------------------------------------------ *)
(* per-connection read buffer (owned by the IO domain)                  *)
(* ------------------------------------------------------------------ *)

module Rbuf = struct
  type t = { mutable data : Bytes.t; mutable pos : int; mutable len : int }

  let create () = { data = Bytes.create 4096; pos = 0; len = 0 }
  let length b = b.len

  let reset b =
    b.pos <- 0;
    b.len <- 0

  let ensure b n =
    if b.pos > 0 then begin
      Bytes.blit b.data b.pos b.data 0 b.len;
      b.pos <- 0
    end;
    if Bytes.length b.data - b.len < n then begin
      let cap = ref (2 * Bytes.length b.data) in
      while !cap - b.len < n do
        cap := !cap * 2
      done;
      let d = Bytes.create !cap in
      Bytes.blit b.data 0 d 0 b.len;
      b.data <- d
    end

  (* one read(2) into the free tail; the fd is nonblocking, so an empty
     socket raises EAGAIN instead of stalling the IO domain *)
  let fill b fd =
    ensure b 8192;
    let n = Unix.read fd b.data (b.pos + b.len) (Bytes.length b.data - b.pos - b.len) in
    b.len <- b.len + n;
    n

  let peek b n = Bytes.sub_string b.data b.pos n

  (* the buffered bytes live at [[pos, pos + length)] of [raw] — frames
     are decoded in place from this view, no per-frame slice *)
  let raw b = Bytes.unsafe_to_string b.data
  let pos b = b.pos

  let consume b n =
    b.pos <- b.pos + n;
    b.len <- b.len - n
end

type conn = {
  fd : Unix.file_descr;
  rbuf : Rbuf.t; (* pooled; IO domain only *)
  pending : Codec.encoder; (* pooled; queued response bytes, under wmutex *)
  wmutex : Mutex.t;
  mutable hello_done : bool;
  mutable open_ : bool; (* wmutex: writers may touch fd/pending *)
  mutable closed : bool; (* wmutex: fd has been closed (IO domain/wait) *)
  mutable wflag : bool; (* sig_m: already queued for write interest *)
}

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  workers : int;
  queue_capacity : int;
  queue : (unit -> unit) Bq.t;
  handle : t -> conn -> now_ns:int -> Frame.request -> unit;
  evloop : Evloop.t;
  io_backend_name : string;
  started_ns : int;
  stop_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  obs_mutex : Mutex.t;
  obs_ctx : Obs.context;
  conns_mutex : Mutex.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  (* worker -> IO domain signals: connections wanting write interest
     (their [pending] has bytes) and connections condemned by a failed
     write; the IO domain owns the event loop, so only it may register
     interest or close fds *)
  sig_m : Mutex.t;
  mutable sig_want_write : conn list;
  mutable sig_dead : conn list;
  (* pooled per-connection buffers: connection churn reuses buffers
     instead of allocating fresh ones per accept *)
  rbuf_m : Mutex.t;
  mutable rbuf_free : Rbuf.t list;
  wbuf_pool : Netbuf.Pool.t;
  c_conns : int Atomic.t;
  c_received : int Atomic.t;
  c_answered : int Atomic.t;
  c_updated : int Atomic.t;
  c_overload : int Atomic.t;
  c_deadline : int Atomic.t;
  c_bad : int Atomic.t;
  mutable io_domain : unit Domain.t option;
  mutable worker_domains : unit Domain.t list;
}

let port t = t.bound_port
let io_backend t = t.io_backend_name
let workers t = t.workers
let queue_capacity t = t.queue_capacity
let queue_depth t = Bq.depth t.queue
let uptime_ns t = Mono.now_ns () - t.started_ns

let note_received t = Atomic.incr t.c_received
let note_answered t = Atomic.incr t.c_answered
let note_updated t = Atomic.incr t.c_updated
let note_overload t = Atomic.incr t.c_overload
let note_deadline t = Atomic.incr t.c_deadline
let note_bad t = Atomic.incr t.c_bad

let stats t =
  {
    connections = Atomic.get t.c_conns;
    received = Atomic.get t.c_received;
    answered = Atomic.get t.c_answered;
    updated = Atomic.get t.c_updated;
    rejected_overload = Atomic.get t.c_overload;
    rejected_deadline = Atomic.get t.c_deadline;
    bad_requests = Atomic.get t.c_bad;
  }

(* run [f] under the core's shared Obs context, serialized — roles adopt
   finished per-job contexts and bump role-level metrics through this *)
let with_obs t f =
  Mutex.protect t.obs_mutex (fun () -> Obs.with_context t.obs_ctx f)

let trace_json t = with_obs t (fun () -> Json.to_string (Obs.trace ()))

let max_free_rbufs = 64

let acquire_rbuf t =
  Mutex.protect t.rbuf_m (fun () ->
      match t.rbuf_free with
      | b :: rest ->
          t.rbuf_free <- rest;
          b
      | [] -> Rbuf.create ())

let release_rbuf t b =
  Rbuf.reset b;
  Mutex.protect t.rbuf_m (fun () ->
      if List.length t.rbuf_free < max_free_rbufs then
        t.rbuf_free <- b :: t.rbuf_free)

(* each domain encodes responses into its own reusable scratch buffer —
   zero allocation per response once the buffer has grown to the
   workload's frame size *)
let scratch_key =
  Domain.DLS.new_key (fun () -> Codec.encoder ~capacity:4096 ())

let wake t =
  (* a full pipe just means the IO domain is already due to wake *)
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let request_write_interest t conn =
  let fresh =
    Mutex.protect t.sig_m (fun () ->
        if conn.wflag then false
        else begin
          conn.wflag <- true;
          t.sig_want_write <- conn :: t.sig_want_write;
          true
        end)
  in
  if fresh then wake t

let push_dead t conn =
  Mutex.protect t.sig_m (fun () -> t.sig_dead <- conn :: t.sig_dead);
  wake t

(* During drain the IO domain is gone, so nobody will flush [pending] on
   a writable event; fall back to a bounded blocking flush (the old
   behaviour of the blocking write path), called under [wmutex]. *)
let rec drain_flush conn deadline =
  match Netbuf.flush conn.fd conn.pending with
  | Netbuf.Flushed | Netbuf.Gone -> ()
  | Netbuf.Again ->
      if Mono.now_ns () < deadline then begin
        (try ignore (Unix.select [] [ conn.fd ] [] 0.05)
         with Unix.Unix_error _ -> ());
        drain_flush conn deadline
      end

(* Writes come from worker domains and the IO domain; the per-connection
   mutex serializes them and guards [open_] so nobody writes to (or
   stashes onto) a dead connection.  The frame is encoded once into the
   calling domain's scratch buffer and written straight from it; bytes
   the socket refuses are stashed on [conn.pending] and the IO domain is
   asked for write interest. *)
let reply t conn resp =
  let scratch = Domain.DLS.get scratch_key in
  Codec.clear scratch;
  Frame.encode_response_into scratch resp;
  let status =
    Mutex.protect conn.wmutex (fun () ->
        if not conn.open_ then `Done
        else
          match
            Netbuf.write_or_stash conn.fd ~pending:conn.pending
              (Codec.data scratch) ~pos:0 ~len:(Codec.length scratch)
          with
          | Netbuf.Flushed -> `Done
          | Netbuf.Again ->
              if Atomic.get t.stop_flag then begin
                drain_flush conn (Mono.now_ns () + 5_000_000_000);
                `Done
              end
              else `Want_write
          | Netbuf.Gone ->
              conn.open_ <- false;
              `Dead)
  in
  match status with
  | `Done -> ()
  | `Want_write -> request_write_interest t conn
  | `Dead -> push_dead t conn

let enqueue t job = Bq.try_push t.queue job

(* ------------------------------------------------------------------ *)
(* the job runner: every queued request of either role                  *)
(* ------------------------------------------------------------------ *)

(* A request's budget runs from decode on the monotonic clock; [max_int]
   is none — also for a budget too large to add to the clock *)
let deadline_of ~now_ns = function
  | Frame.Answer { deadline_us; _ } | Frame.Agg { deadline_us; _ }
    when deadline_us > 0 && deadline_us < (max_int - now_ns) / 1000 ->
      now_ns + (deadline_us * 1000)
  | _ -> max_int

let request_id = function
  | Frame.Answer { id; _ }
  | Frame.Agg { id; _ }
  | Frame.Update { id; _ }
  | Frame.Stats { id }
  | Frame.Health { id } ->
      id

let span_attrs = function
  | Frame.Answer { id; tuples; _ } ->
      [ ("id", Json.Int id); ("tuples", Json.Int (List.length tuples)) ]
  | Frame.Agg { id; kind; tuples; _ } ->
      [
        ("id", Json.Int id);
        ("kind", Json.Int kind);
        ("tuples", Json.Int (List.length tuples));
      ]
  | Frame.Update { id; deltas } ->
      [ ("id", Json.Int id); ("deltas", Json.Int (List.length deltas)) ]
  | Frame.Stats { id } | Frame.Health { id } -> [ ("id", Json.Int id) ]

(* the one reply a request gets, counted by what it amounts to *)
let finish t conn ~id = function
  | Ok resp ->
      (match resp with
      | Frame.Updated _ -> note_updated t
      | _ -> note_answered t);
      reply t conn resp
  | Error reject ->
      (match reject with
      | Frame.Overloaded -> note_overload t
      | Frame.Deadline_exceeded -> note_deadline t
      | Frame.Bad_request _ -> note_bad t);
      reply t conn (Frame.Rejected { id; reject })

let submit t conn ~now_ns req ~span ~counter ~hist work =
  let id = request_id req and deadline = deadline_of ~now_ns req in
  let job () =
    let started = Mono.now_ns () in
    if started > deadline then finish t conn ~id (Error Frame.Deadline_exceeded)
    else begin
      let remaining_us =
        if deadline = max_int then 0 else max 1 ((deadline - started) / 1000)
      in
      (* each job runs under its own context so worker traces never race;
         the finished context is adopted into the core's under a lock *)
      let jctx = Obs.create_context () in
      let outcome =
        Obs.with_context jctx (fun () ->
            Obs.span ~attrs:(span_attrs req) span (fun () ->
                try work ~remaining_us with
                | Failure msg -> Error (Frame.Bad_request msg)
                | e -> Error (Frame.Bad_request (Printexc.to_string e))))
      in
      let finished = Mono.now_ns () in
      finish t conn ~id
        (match outcome with
        | Ok _ when finished > deadline -> Error Frame.Deadline_exceeded
        | outcome -> outcome);
      with_obs t (fun () ->
          Obs.adopt jctx;
          Obs.incr counter;
          Obs.observe hist (float_of_int (finished - started) /. 1e3))
    end
  in
  note_received t;
  if not (enqueue t job) then finish t conn ~id (Error Frame.Overloaded)

(* full teardown: close the fd and recycle the connection's buffers.
   Only the IO domain (or [wait], after it exited) may call this. *)
let close_conn t conn =
  let release =
    Mutex.protect conn.wmutex (fun () ->
        conn.open_ <- false;
        if conn.closed then false
        else begin
          conn.closed <- true;
          (try Unix.close conn.fd with Unix.Unix_error _ -> ());
          true
        end)
  in
  if release then begin
    release_rbuf t conn.rbuf;
    Netbuf.Pool.release t.wbuf_pool conn.pending
  end;
  Mutex.protect t.conns_mutex (fun () -> Hashtbl.remove t.conns conn.fd)

let worker_loop t () =
  let rec go () =
    match Bq.pop t.queue with
    | None -> ()
    | Some job ->
        job ();
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* IO domain: readiness loop over Evloop                                *)
(* ------------------------------------------------------------------ *)

(* cut every complete frame out of the connection's buffer — decoded in
   place from the buffer's backing bytes, no per-frame body copy;
   returns [false] when the connection must be dropped (bad hello / bad
   frame) *)
let rec drain_buffer t conn =
  let buf = conn.rbuf in
  if not conn.hello_done then
    if Rbuf.length buf < Frame.hello_len then true
    else begin
      let hello = Rbuf.peek buf Frame.hello_len in
      Rbuf.consume buf Frame.hello_len;
      match Frame.check_hello hello with
      | Ok () ->
          conn.hello_done <- true;
          drain_buffer t conn
      | Error _ ->
          note_bad t;
          false
    end
  else if Rbuf.length buf < 4 then true
  else
    let len = Frame.peek_len (Rbuf.raw buf) ~pos:(Rbuf.pos buf) in
    if len < 4 || len > Frame.max_frame_len then begin
      note_bad t;
      reply t conn
        (Frame.Rejected
           {
             id = 0;
             reject =
               Frame.Bad_request (Printf.sprintf "frame length %d" len);
           });
      false
    end
    else if Rbuf.length buf < 4 + len then true
    else begin
      let decoded =
        Frame.decode_request_sub (Rbuf.raw buf) ~pos:(Rbuf.pos buf + 4) ~len
      in
      Rbuf.consume buf (4 + len);
      match decoded with
      | Ok req ->
          t.handle t conn ~now_ns:(Mono.now_ns ()) req;
          drain_buffer t conn
      | Error e ->
          (* the stream may be out of sync past a bad frame: answer with
             a typed rejection, then drop the connection *)
          note_bad t;
          reply t conn
            (Frame.Rejected
               { id = 0; reject = Frame.Bad_request (Frame.error_to_string e) });
          false
    end

let hello_bytes = Bytes.of_string Frame.hello

let io_loop t () =
  let loop = t.evloop in
  let live = Hashtbl.create 64 in
  (* hoisted out of the loop: the wake pipe drain scratch used to be a
     fresh 64-byte allocation per wakeup *)
  let wake_scratch = Bytes.create 64 in
  let drop conn =
    Hashtbl.remove live conn.fd;
    Evloop.remove loop conn.fd;
    close_conn t conn
  in
  let add_conn fd =
    Unix.set_nonblock fd;
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    let conn =
      {
        fd;
        rbuf = acquire_rbuf t;
        pending = Netbuf.Pool.acquire t.wbuf_pool;
        wmutex = Mutex.create ();
        hello_done = false;
        open_ = true;
        closed = false;
        wflag = false;
      }
    in
    Atomic.incr t.c_conns;
    Hashtbl.replace live fd conn;
    Mutex.protect t.conns_mutex (fun () -> Hashtbl.replace t.conns fd conn);
    Evloop.add loop fd;
    (* greet immediately; the 12 bytes land in the empty socket buffer
       except under extreme memory pressure, where they stash *)
    let greeting =
      Mutex.protect conn.wmutex (fun () ->
          Netbuf.write_or_stash fd ~pending:conn.pending hello_bytes ~pos:0
            ~len:(Bytes.length hello_bytes))
    in
    match greeting with
    | Netbuf.Flushed -> ()
    | Netbuf.Again -> Evloop.set_write loop fd true
    | Netbuf.Gone -> drop conn
  in
  let rec accept_all () =
    if not (Atomic.get t.stop_flag) then
      match Unix.accept t.listen_fd with
      | fd, _ ->
          add_conn fd;
          accept_all ()
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  (* edge-triggered readiness: always read to EAGAIN (harmless extra
     syscall under level-triggered select) *)
  let handle_readable conn =
    let rec pump () =
      match Rbuf.fill conn.rbuf conn.fd with
      | 0 -> `Drop
      | _ -> if drain_buffer t conn then pump () else `Drop
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Keep
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
      | exception Unix.Unix_error (_, _, _) -> `Drop
    in
    match pump () with `Drop -> drop conn | `Keep -> ()
  in
  let handle_writable conn =
    let r =
      Mutex.protect conn.wmutex (fun () ->
          if conn.closed || not conn.open_ then `Ignore
          else
            match Netbuf.flush conn.fd conn.pending with
            | Netbuf.Flushed ->
                Evloop.set_write loop conn.fd false;
                `Keep
            | Netbuf.Again -> `Keep
            | Netbuf.Gone ->
                conn.open_ <- false;
                `Drop)
    in
    match r with `Drop -> drop conn | `Keep | `Ignore -> ()
  in
  let drain_wake () =
    let rec go () =
      match Unix.read t.wake_r wake_scratch 0 (Bytes.length wake_scratch) with
      | 0 -> ()
      | _ -> go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    go ()
  in
  (* apply worker signals: grant write interest to connections with
     stashed bytes, tear down condemned ones *)
  let process_signals () =
    let want, dead =
      Mutex.protect t.sig_m (fun () ->
          let want = t.sig_want_write and dead = t.sig_dead in
          t.sig_want_write <- [];
          t.sig_dead <- [];
          List.iter (fun c -> c.wflag <- false) want;
          (want, dead))
    in
    List.iter
      (fun conn ->
        match Hashtbl.find_opt live conn.fd with
        | Some c when c == conn ->
            Mutex.protect conn.wmutex (fun () ->
                if
                  conn.open_ && (not conn.closed)
                  && Codec.length conn.pending > 0
                then Evloop.set_write loop conn.fd true)
        | _ -> ())
      want;
    List.iter
      (fun conn ->
        match Hashtbl.find_opt live conn.fd with
        | Some c when c == conn -> drop conn
        | _ -> ())
      dead
  in
  Evloop.add loop t.listen_fd;
  Evloop.add loop t.wake_r;
  let rec run () =
    if not (Atomic.get t.stop_flag) then begin
      ignore
        (Evloop.wait loop ~timeout_ms:(-1) (fun fd ~readable ~writable ->
             if fd = t.wake_r then begin
               if readable then drain_wake ()
             end
             else if fd = t.listen_fd then begin
               if readable then accept_all ()
             end
             else
               match Hashtbl.find_opt live fd with
               | None -> ()
               | Some conn ->
                   if writable then handle_writable conn;
                   if readable && Hashtbl.mem live fd then
                     handle_readable conn));
      process_signals ();
      run ()
    end
  in
  run ();
  (* drain: no new connections, no new reads; queued jobs still get
     answered by the workers, so connection fds stay open until [wait] *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Evloop.close loop;
  Bq.close t.queue

(* ------------------------------------------------------------------ *)
(* lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start ?(host = "127.0.0.1") ~port ~workers ~queue_capacity ?io_backend
    handle =
  if workers < 1 then invalid_arg "Core.start: workers must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Core.start: queue_capacity must be >= 1";
  (* a peer vanishing mid-write must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 512;
     Unix.set_nonblock listen_fd
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let evloop =
    match io_backend with
    | Some b -> Evloop.create ~backend:b ()
    | None -> Evloop.create ()
  in
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      listen_fd;
      bound_port;
      workers;
      queue_capacity;
      queue = Bq.create queue_capacity;
      handle;
      evloop;
      io_backend_name = Evloop.name evloop;
      started_ns = Mono.now_ns ();
      stop_flag = Atomic.make false;
      wake_r;
      wake_w;
      obs_mutex = Mutex.create ();
      obs_ctx = Obs.create_context ();
      conns_mutex = Mutex.create ();
      conns = Hashtbl.create 32;
      sig_m = Mutex.create ();
      sig_want_write = [];
      sig_dead = [];
      rbuf_m = Mutex.create ();
      rbuf_free = [];
      wbuf_pool = Netbuf.Pool.create ~capacity:4096;
      c_conns = Atomic.make 0;
      c_received = Atomic.make 0;
      c_answered = Atomic.make 0;
      c_updated = Atomic.make 0;
      c_overload = Atomic.make 0;
      c_deadline = Atomic.make 0;
      c_bad = Atomic.make 0;
      io_domain = None;
      worker_domains = [];
    }
  in
  t.worker_domains <-
    List.init workers (fun _ -> Domain.spawn (worker_loop t));
  t.io_domain <- Some (Domain.spawn (io_loop t));
  t

let stopping t = Atomic.get t.stop_flag

let stop t =
  if not (Atomic.exchange t.stop_flag true) then wake t

let wait t =
  (match t.io_domain with
  | Some d ->
      Domain.join d;
      t.io_domain <- None
  | None -> ());
  List.iter Domain.join t.worker_domains;
  t.worker_domains <- [];
  let leftovers =
    Mutex.protect t.conns_mutex (fun () ->
        Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
  in
  List.iter (fun c -> close_conn t c) leftovers;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  stats t
