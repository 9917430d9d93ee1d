(* Blocking protocol client over a Unix or TCP socket. *)

(* Responses are normally small (a few hundred bytes plus one int per
   vertex), but a million-vertex side array is legitimate — give the
   client plenty of headroom before calling a response malformed. *)
let client_max_frame = 64 * 1024 * 1024

type t = {
  fd : Unix.file_descr;
  frames : Protocol.Frames.t;
  ready : Protocol.response Queue.t;
  buf : Bytes.t; (* the read buffer: one per client, so no two domains share it *)
  mutable closed : bool;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect addr =
  let fd, target =
    match (addr : Server.addr) with
    | Server.Unix_path path ->
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Server.Tcp (host, port) ->
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
        (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0, Unix.ADDR_INET (inet, port))
  in
  (try Unix.connect fd target
   with Unix.Unix_error (e, _, _) ->
     close_quietly fd;
     failwith
       (Printf.sprintf "cannot connect to %s: %s" (Server.addr_to_string addr)
          (Unix.error_message e)));
  {
    fd;
    frames = Protocol.Frames.create ~max_frame:client_max_frame;
    ready = Queue.create ();
    buf = Bytes.create 65536;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_quietly t.fd
  end

let fd t = t.fd

let send t req =
  if t.closed then failwith "serve client: connection is closed";
  let line = Protocol.request_to_line req ^ "\n" in
  let len = String.length line in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring t.fd line !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
        close t;
        failwith (Printf.sprintf "serve client: send failed: %s" (Unix.error_message e))
  done

(* Read once (blocking) and file completed frames into [ready]. *)
let pump t =
  match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
  | 0 ->
      close t;
      failwith "serve client: connection closed by server"
  | n ->
      List.iter
        (function
          | `Line line -> (
              match Protocol.response_of_line line with
              | Ok resp -> Queue.add resp t.ready
              | Error msg -> failwith ("serve client: " ^ msg))
          | `Oversized _ -> failwith "serve client: oversized response line")
        (Protocol.Frames.feed t.frames (Bytes.sub_string t.buf 0 n))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      close t;
      failwith (Printf.sprintf "serve client: recv failed: %s" (Unix.error_message e))

(* A socket deadline is wall time, whatever clock the program put in
   Gb_obs.Clock: CPU time does not pass while [select] blocks. *)
(* lint: allow no-wall-clock — a socket deadline is wall time by definition and feeds no reported figure *)
let wall_now = Unix.gettimeofday

let recv ?timeout t =
  if t.closed then failwith "serve client: connection is closed";
  let deadline = Option.map (fun s -> wall_now () +. s) timeout in
  let rec go () =
    match Queue.take_opt t.ready with
    | Some resp -> resp
    | None ->
        let wait =
          match deadline with
          | None -> 1.0
          | Some d ->
              let left = d -. wall_now () in
              if left <= 0. then failwith "serve client: timed out waiting for a response"
              else Float.min left 1.0
        in
        (match Unix.select [ t.fd ] [] [] wait with
        | [], _, _ -> ()
        | _ -> pump t
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go ()
  in
  go ()

let call ?timeout t req =
  send t req;
  recv ?timeout t

let try_recv t =
  if t.closed then failwith "serve client: connection is closed";
  let rec drain () =
    match Unix.select [ t.fd ] [] [] 0. with
    | [], _, _ -> ()
    | _ ->
        pump t;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  if Queue.is_empty t.ready then drain ();
  Queue.take_opt t.ready
