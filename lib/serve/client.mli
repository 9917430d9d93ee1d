(** A minimal blocking client for the serving protocol.

    One value is one connection. Used by [gbisect bombard], the test
    suite, and anyone scripting the daemon from OCaml; third-party
    clients should be written from SERVING.md instead (the protocol is
    twenty lines of any language).

    Not domain-safe: a connection belongs to one caller. *)

type t

val connect : Server.addr -> t
(** @raise Failure when the peer is unreachable (connection refused,
    missing socket file, unresolvable host). *)

val close : t -> unit
(** Idempotent. *)

val fd : t -> Unix.file_descr
(** The underlying descriptor (the load generator multiplexes many
    connections with [select]). *)

val send : t -> Protocol.request -> unit
(** Write one request line (blocking).
    @raise Failure if the connection died. *)

(* lint: allow dead-export — test/test_serve.ml drives the daemon with it *)
val recv : ?timeout:float -> t -> Protocol.response
(** Block until one complete response line arrives and parse it.
    @raise Failure on EOF, a protocol violation, or after [timeout]
    seconds of wall time, whatever clock {!Gb_obs.Clock} reads
    (default: wait forever). *)

(* lint: allow dead-export — test/test_serve.ml drives the daemon with it *)
val call : ?timeout:float -> t -> Protocol.request -> Protocol.response
(** {!send} then {!recv}. *)

val try_recv : t -> Protocol.response option
(** Drain whatever bytes are already readable without blocking and
    return the next buffered response, if a complete one is available.
    @raise Failure on EOF or a protocol violation. *)
