(* Replica fleet supervision for the multi-process bench and smoke
   tests: ship one snapshot to N boot paths (Stt_store.ship — validated,
   atomic), spawn N `stt serve-net --from-snapshot ... --port 0`
   processes, scrape each child's bound ephemeral port off its stdout,
   and drain them with SIGTERM (the replica's own graceful drain answers
   everything it already queued).

   The stdout pipe stays open until the child is reaped: the replica
   prints its drain summary on exit, and a closed pipe would turn that
   farewell into an EPIPE crash mid-drain. *)

type replica = {
  name : string;
  port : int;
  pid : int;
  out_fd : Unix.file_descr;
  snap_path : string;
}

type t = { mutable replicas : replica list; dir : string }

let endpoints t =
  List.map
    (fun r -> { Router.name = r.name; host = "127.0.0.1"; port = r.port })
    (List.rev t.replicas)

(* scan accumulated stdout for "serving on 127.0.0.1:PORT (" — the
   trailing delimiter guarantees the digits are complete *)
let scrape_port s =
  let marker = "serving on 127.0.0.1:" in
  let mlen = String.length marker in
  let rec find i =
    if i + mlen > String.length s then None
    else if String.sub s i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let j = ref start in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      if !j > start && !j < String.length s then
        int_of_string_opt (String.sub s start (!j - start))
      else None

let read_port fd ~timeout_s =
  let buf = Buffer.create 256 in
  let scratch = Bytes.create 1024 in
  let deadline = Stt_obs.Mono.now_s () +. timeout_s in
  let rec go () =
    match scrape_port (Buffer.contents buf) with
    | Some port -> Ok port
    | None -> (
        let left = deadline -. Stt_obs.Mono.now_s () in
        if left <= 0.0 then
          Error
            (Printf.sprintf "timed out waiting for replica to bind; output: %S"
               (Buffer.contents buf))
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ ->
              Error
                (Printf.sprintf
                   "timed out waiting for replica to bind; output: %S"
                   (Buffer.contents buf))
          | _ -> (
              match Unix.read fd scratch 0 (Bytes.length scratch) with
              | 0 ->
                  Error
                    (Printf.sprintf "replica exited during startup; output: %S"
                       (Buffer.contents buf))
              | n ->
                  Buffer.add_subbytes buf scratch 0 n;
                  go ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let spawn_replica ~exe ~snapshot ~dir ~name ~workers ~queue ~cache_budget
    ~io_backend =
  let snap_path = Filename.concat dir (name ^ ".snap") in
  match Stt_store.Store.ship ~src:snapshot ~dst:snap_path with
  | Error e ->
      Error
        (Printf.sprintf "shipping snapshot to %s: %s" snap_path
           (Stt_store.Store.error_to_string e))
  | Ok _ -> (
      let args =
        [
          exe; "serve-net";
          "--from-snapshot"; snap_path;
          "--port"; "0";
          "--jobs"; string_of_int workers;
          "--queue"; string_of_int queue;
        ]
        @ (if cache_budget > 0 then
             [ "--cache-budget"; string_of_int cache_budget ]
           else [])
        @ match io_backend with
          | Some b -> [ "--io-backend"; b ]
          | None -> []
      in
      let out_r, out_w = Unix.pipe () in
      let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      let pid =
        Unix.create_process exe (Array.of_list args) dev_null out_w Unix.stderr
      in
      Unix.close dev_null;
      Unix.close out_w;
      match read_port out_r ~timeout_s:60.0 with
      | Ok port -> Ok { name; port; pid; out_fd = out_r; snap_path }
      | Error msg ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
          (try Unix.close out_r with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "%s: %s" name msg))

let reap r =
  (try ignore (Unix.waitpid [] r.pid) with Unix.Unix_error _ -> ());
  try Unix.close r.out_fd with Unix.Unix_error _ -> ()

let shutdown t =
  List.iter
    (fun r ->
      try Unix.kill r.pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.replicas;
  List.iter reap t.replicas;
  t.replicas <- []

let launch ~exe ~snapshot ~dir ~count ?(workers = 2) ?(queue = 256)
    ?(cache_budget = 0) ?io_backend () =
  if count < 1 then invalid_arg "Fleet.launch: count must be >= 1";
  let t = { replicas = []; dir } in
  let rec go i =
    if i = count then Ok t
    else
      let name = Printf.sprintf "shard-%d" i in
      match
        spawn_replica ~exe ~snapshot ~dir ~name ~workers ~queue ~cache_budget
          ~io_backend
      with
      | Ok r ->
          t.replicas <- r :: t.replicas;
          go (i + 1)
      | Error msg ->
          shutdown t;
          Error msg
  in
  go 0

(* SIGTERM one replica (the router should have [drain_shard]ed it): its
   graceful drain answers queued requests, then the process exits and is
   reaped.  Returns [false] for an unknown name. *)
let drain t name =
  match List.find_opt (fun r -> r.name = name) t.replicas with
  | None -> false
  | Some r ->
      (try Unix.kill r.pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap r;
      t.replicas <- List.filter (fun x -> x.name <> name) t.replicas;
      true
