(* The gbisect serve daemon. One domain runs the whole accept/parse/
   schedule/respond loop; solve jobs execute inline between polls (the
   best-of-starts fan-out inside a job, Gb_algo.Algo.solve, uses the
   ambient Gb_par.Pool).
   SERVING.md documents the observable behavior normatively. *)

module Rng = Gb_prng.Rng
module Gio = Gb_graph.Gio
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Algo = Gb_algo.Algo
module Store = Gb_store.Store
module Metrics = Gb_obs.Metrics
module Trace = Gb_obs.Trace
module Span = Gb_obs.Span
module Clock = Gb_obs.Clock
module Json = Gb_obs.Json

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let parse_addr s =
  let prefixed p =
    if String.length s >= String.length p && String.sub s 0 (String.length p) = p
    then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  match prefixed "unix:" with
  | Some "" -> Error "unix: address needs a socket path"
  | Some path -> Ok (Unix_path path)
  | None -> (
      match prefixed "tcp:" with
      | Some rest -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" rest)
          | Some i -> (
              let host = String.sub rest 0 i in
              let port = String.sub rest (i + 1) (String.length rest - i - 1) in
              match int_of_string_opt port with
              | Some p when p > 0 && p < 65536 ->
                  Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
              | _ -> Error (Printf.sprintf "invalid tcp port %S" port)))
      | None ->
          if s = "" then Error "empty address" else Ok (Unix_path s))

(* ------------------------------------------------------------------ *)
(* Configuration and state                                             *)

type config = {
  queue_capacity : int;
  max_frame : int;
  starts_cap : int;
  store : Store.t option;
  log : string -> unit;
}

let default_config =
  {
    queue_capacity = 64;
    max_frame = 8 * 1024 * 1024;
    starts_cap = 512;
    store = None;
    log = ignore;
  }

type t = {
  config : config;
  started : float;
  mutable requests : int;
  mutable solved : int;
  mutable errors : int;
  mutable overloaded : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable queue_depth : int;
  mutable is_stopping : bool;
}

let create config =
  {
    config =
      {
        config with
        queue_capacity = max 1 config.queue_capacity;
        max_frame = max 64 config.max_frame;
        starts_cap = max 1 config.starts_cap;
      };
    started = Clock.now ();
    requests = 0;
    solved = 0;
    errors = 0;
    overloaded = 0;
    cache_hits = 0;
    cache_misses = 0;
    queue_depth = 0;
    is_stopping = false;
  }

let stopping t = t.is_stopping

let stats t : Protocol.stats =
  {
    uptime_seconds = Clock.now () -. t.started;
    requests = t.requests;
    solved = t.solved;
    errors = t.errors;
    overloaded = t.overloaded;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    queue_depth = t.queue_depth;
    queue_capacity = t.config.queue_capacity;
  }

(* Metrics are interned once; recording is gated on the global switch
   like every other instrument in the repo. *)
let m_requests = Metrics.counter "serve.requests"
let m_solved = Metrics.counter "serve.solved"
let m_errors = Metrics.counter "serve.errors"
let m_overloaded = Metrics.counter "serve.overloaded"
let m_cache_hits = Metrics.counter "serve.cache_hits"
let m_cache_misses = Metrics.counter "serve.cache_misses"
let h_latency = Metrics.histogram "serve.latency_us"
let h_queue = Metrics.histogram "serve.queue_depth"

let count_failure t code =
  t.errors <- t.errors + 1;
  Metrics.incr m_errors;
  match (code : Protocol.error_code) with
  | Overloaded ->
      t.overloaded <- t.overloaded + 1;
      Metrics.incr m_overloaded
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The solve engine                                                    *)

(* v2: mlkl and mlfm answers since the multilevel refinement budget
   became four passes per level; a v1 entry may hold the older answer. *)
let cache_key (s : Protocol.solve) canonical =
  Store.key
    [
      ("kind", "serve.solve/v2");
      ("graph", Digest.to_hex (Digest.string canonical));
      ("algorithm", Algo.id s.algorithm);
      ("starts", string_of_int s.starts);
      ("seed", string_of_int s.seed);
    ]

let solve_reply t (s : Protocol.solve) : Protocol.reply =
  let fail code msg =
    count_failure t code;
    Protocol.Failed (code, msg)
  in
  if s.starts > t.config.starts_cap then
    fail Bad_request
      (Printf.sprintf "solve: \"starts\" %d exceeds this server's cap of %d" s.starts
         t.config.starts_cap)
  else
    match
      match s.format with
      | Protocol.Edge_list -> Gio.of_edge_list_string s.data
      | Protocol.Metis -> Gio.of_metis_string s.data
    with
    | exception Failure msg -> fail Bad_request ("solve: graph: " ^ msg)
    | g when Csr.n_vertices g < 2 ->
        fail Bad_request "solve: graph must have at least 2 vertices"
    | g -> (
        let canonical = Gio.to_edge_list_string g in
        let key = cache_key s canonical in
        let cached_solved =
          match t.config.store with
          | None -> None
          | Some store -> (
              match Store.find store key with
              | None -> None
              | Some v -> (
                  match Protocol.solved_of_json v with
                  | Ok solved -> Some solved
                  | Error _ -> None (* stale payload shape: recompute *)))
        in
        match cached_solved with
        | Some solved ->
            t.cache_hits <- t.cache_hits + 1;
            Metrics.incr m_cache_hits;
            t.solved <- t.solved + 1;
            Metrics.incr m_solved;
            Trace.instant Span.serve_cache_hit;
            Protocol.Solved { solved with cached = true }
        | None -> (
            let span = Trace.start () in
            let t0 = Clock.now () in
            match Algo.solve ~starts:s.starts s.algorithm (Rng.create ~seed:s.seed) g with
            | exception (Failure msg | Invalid_argument msg) ->
                Trace.finish span Span.serve_solve;
                fail Bad_request ("solve: " ^ msg)
            | exception e ->
                Trace.finish span Span.serve_solve;
                fail Internal (Printexc.to_string e)
            | b ->
                let seconds = Clock.now () -. t0 in
                let n0, n1 = Bisection.counts b in
                let solved : Protocol.solved =
                  {
                    algorithm = s.algorithm;
                    cut = Bisection.cut b;
                    n0;
                    n1;
                    side = Bisection.sides b;
                    balanced = Bisection.is_balanced b;
                    seconds;
                    cached = false;
                  }
                in
                Trace.finish
                  ~args:[ ("cut", Json.Int solved.cut); ("n", Json.Int (n0 + n1)) ]
                  span Span.serve_solve;
                t.cache_misses <- t.cache_misses + 1;
                Metrics.incr m_cache_misses;
                t.solved <- t.solved + 1;
                Metrics.incr m_solved;
                (match t.config.store with
                | None -> ()
                | Some store -> Store.add store key (Protocol.solved_to_stored solved));
                Protocol.Solved solved))

let handle t (req : Protocol.request) : Protocol.response =
  t.requests <- t.requests + 1;
  Metrics.incr m_requests;
  match req with
  | Protocol.Ping id -> { rid = id; reply = Protocol.Pong }
  | Protocol.Stats id -> { rid = id; reply = Protocol.Stats_reply (stats t) }
  | Protocol.Shutdown id ->
      t.is_stopping <- true;
      { rid = id; reply = Protocol.Stopping }
  | Protocol.Solve s ->
      if t.is_stopping then begin
        count_failure t Shutting_down;
        { rid = s.id; reply = Protocol.Failed (Shutting_down, "server is draining") }
      end
      else { rid = s.id; reply = solve_reply t s }

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let bind_listener = function
  | Unix_path path ->
      (if Sys.file_exists path then
         match (Unix.stat path).Unix.st_kind with
         | Unix.S_SOCK ->
             (* Live server, or a stale file from a killed one? Probe. *)
             let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
             let live =
               match Unix.connect probe (Unix.ADDR_UNIX path) with
               | () -> true
               | exception Unix.Unix_error _ -> false
             in
             close_quietly probe;
             if live then
               failwith
                 (Printf.sprintf "address in use: a server is listening on unix:%s" path)
             else Sys.remove path
         | _ ->
             failwith
               (Printf.sprintf "%s exists and is not a socket; refusing to unlink it" path));
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind sock (Unix.ADDR_UNIX path);
         Unix.listen sock 64
       with Unix.Unix_error (e, _, _) ->
         close_quietly sock;
         failwith
           (Printf.sprintf "cannot listen on unix:%s: %s" path (Unix.error_message e)));
      sock
  | Tcp (host, port) ->
      let inet =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception Failure _ -> (
            match
              Unix.getaddrinfo host ""
                [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
            with
            | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
            | _ | (exception Unix.Unix_error _) ->
                failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt sock Unix.SO_REUSEADDR true;
         Unix.bind sock (Unix.ADDR_INET (inet, port));
         Unix.listen sock 64
       with Unix.Unix_error (e, _, _) ->
         close_quietly sock;
         failwith
           (Printf.sprintf "cannot listen on tcp:%s:%d: %s" host port
              (Unix.error_message e)));
      sock

type conn = {
  fd : Unix.file_descr;
  frames : Protocol.Frames.t;
  out : string Queue.t;  (* reply lines queued for this client, oldest first *)
  mutable written : int;  (* bytes of the oldest line already written *)
  mutable unsent : int;  (* bytes queued and not yet written *)
  mutable closed : bool;
}

let has_output c = not (Queue.is_empty c.out)

let serve ?(stop = fun () -> false) t addr =
  let listener = bind_listener addr in
  Unix.set_nonblock listener;
  t.config.log (Printf.sprintf "listening on %s" (addr_to_string addr));
  let conns = ref ([] : conn list) in
  (* Queued jobs carry their enqueue time so serve.latency_us measures
     queue wait + compute, i.e. what the client experiences. *)
  let queue : (conn * Protocol.solve * float) Queue.t = Queue.create () in
  let read_buf = Bytes.create 65536 in
  let close_conn c =
    if not c.closed then begin
      c.closed <- true;
      close_quietly c.fd
    end
  in
  (* Writes queued lines, oldest first, until the socket would block.
     Lines are written where they lie, so a client that stops reading
     costs each later reply one refused write, not a copy of the
     backlog. *)
  let rec flush_conn c =
    if (not c.closed) && has_output c then begin
      let line = Queue.peek c.out in
      let len = String.length line - c.written in
      match Unix.write_substring c.fd line c.written len with
      | n ->
          c.unsent <- c.unsent - n;
          if n < len then c.written <- c.written + n
          else begin
            ignore (Queue.take c.out);
            c.written <- 0;
            flush_conn c
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> close_conn c
    end
  in
  let respond c (resp : Protocol.response) =
    if not c.closed then begin
      let line = Protocol.response_to_line resp ^ "\n" in
      Queue.add line c.out;
      c.unsent <- c.unsent + String.length line;
      if c.unsent > 8 * t.config.max_frame then begin
        t.config.log "closing a slow consumer (unread responses exceeded 8*max-frame)";
        close_conn c
      end
      else flush_conn c
    end
  in
  let fabricate c id code msg =
    count_failure t code;
    respond c { Protocol.rid = id; reply = Protocol.Failed (code, msg) }
  in
  let on_line c line =
    match Protocol.request_of_line line with
    | Error (code, msg) -> fabricate c None code msg
    | Ok (Protocol.Solve s) ->
        if t.is_stopping then fabricate c s.id Shutting_down "server is draining"
        else if Queue.length queue >= t.config.queue_capacity then
          fabricate c s.id Overloaded
            (Printf.sprintf "job queue full (%d queued); retry later"
               (Queue.length queue))
        else begin
          Queue.add (c, s, Clock.now ()) queue;
          t.queue_depth <- Queue.length queue;
          Metrics.observe h_queue (float_of_int t.queue_depth)
        end
    | Ok req -> respond c (handle t req)
  in
  let read_conn c =
    match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> close_conn c
    | n ->
        List.iter
          (function
            | `Line line -> on_line c line
            | `Oversized bytes ->
                fabricate c None Too_large
                  (Printf.sprintf
                     "request line exceeded the %d-byte frame limit (got %d+ bytes)"
                     t.config.max_frame bytes))
          (Protocol.Frames.feed c.frames (Bytes.sub_string read_buf 0 n))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error _ -> close_conn c
  in
  let accept_all () =
    let rec go () =
      match Unix.accept listener with
      | fd, _ ->
          Unix.set_nonblock fd;
          conns :=
            { fd; frames = Protocol.Frames.create ~max_frame:t.config.max_frame;
              out = Queue.create (); written = 0; unsent = 0; closed = false }
            :: !conns;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    go ()
  in
  (* Best-effort flush of everything still buffered, with a deadline —
     used at shutdown so clients receive their final responses. *)
  let drain_writes ~deadline =
    let rec go () =
      let pending =
        List.filter (fun c -> (not c.closed) && has_output c) !conns
      in
      if pending <> [] && Clock.now () < deadline then begin
        (match Unix.select [] (List.map (fun c -> c.fd) pending) [] 0.05 with
        | _, w, _ ->
            List.iter (fun c -> if List.memq c.fd w then flush_conn c) pending
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
      end
    in
    go ()
  in
  let finalize () =
    Queue.iter
      (fun (c, (s : Protocol.solve), _) ->
        count_failure t Shutting_down;
        respond c { Protocol.rid = s.id; reply = Failed (Shutting_down, "server is draining") })
      queue;
    Queue.clear queue;
    t.queue_depth <- 0;
    drain_writes ~deadline:(Clock.now () +. 1.0);
    List.iter close_conn !conns;
    close_quietly listener;
    (match addr with
    | Unix_path path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ());
    (match t.config.store with None -> () | Some store -> Store.sync store);
    t.config.log
      (Printf.sprintf "shutdown: %d requests, %d solved, %d cache hits, %d errors"
         t.requests t.solved t.cache_hits t.errors);
    stats t
  in
  let rec loop () =
    if stop () || t.is_stopping then finalize ()
    else begin
      conns := List.filter (fun c -> not c.closed) !conns;
      let rds = listener :: List.map (fun c -> c.fd) !conns in
      let wrs =
        List.filter_map
          (fun c -> if has_output c then Some c.fd else None)
          !conns
      in
      let timeout = if Queue.is_empty queue then 0.2 else 0.0 in
      (match Unix.select rds wrs [] timeout with
      | r, w, _ ->
          if List.memq listener r then accept_all ();
          List.iter (fun c -> if List.memq c.fd w then flush_conn c) !conns;
          List.iter (fun c -> if List.memq c.fd r then read_conn c) !conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      (match Queue.take_opt queue with
      | None -> ()
      | Some (c, s, enqueued) ->
          t.queue_depth <- Queue.length queue;
          let resp = handle t (Protocol.Solve s) in
          Metrics.observe h_latency ((Clock.now () -. enqueued) *. 1e6);
          respond c resp);
      loop ()
    end
  in
  loop ()
