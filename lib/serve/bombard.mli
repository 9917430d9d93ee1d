(** Deterministic load generator for the serving daemon.

    [gbisect bombard] opens a pool of connections, issues a seeded mix
    of solve requests drawn from the fuzz-corpus generator families,
    replays a configurable fraction of them as repeat queries (which a
    healthy daemon answers from the result store), and reports
    throughput, latency percentiles and the cache hit rate as a
    schema-versioned artifact ([results/BENCH_serve.json]).

    The request {e plan} — which graphs, which algorithms, which
    requests are repeats — is a pure function of {!params.seed}, so two
    runs against equivalent servers issue byte-identical request lines.
    Wall-clock figures (latency, requests/sec) are of course
    machine-dependent; counts are not. *)

type params = {
  requests : int;  (** Total solve requests to issue (>= 1). *)
  concurrency : int;  (** Connections, one request in flight on each. *)
  repeat_ratio : float;  (** Fraction in [0,1] replaying an earlier job. *)
  starts : int;  (** Best-of-k starts attached to every job. *)
  seed : int;  (** Master seed for the whole plan. *)
  timeout_seconds : float;  (** Per-response deadline before the
                                connection is declared dead. *)
}

type outcome = {
  params : params;
  issued : int;  (** Requests actually written (= [requests] unless
                     connections died). *)
  solved : int;
  cache_hits : int;  (** Solved responses with [cached = true]. *)
  overloaded : int;  (** [overloaded] error responses (backpressure). *)
  errors : int;  (** Every other failure: protocol errors, timeouts,
                     dead connections, non-overload error codes. *)
  wall_seconds : float;
  requests_per_second : float;  (** [issued /. wall_seconds]. *)
  p50_ms : float;  (** Response latency percentiles, milliseconds. *)
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  families : (string * int) list;  (** Issued requests per generator
                                       family, plan order. *)
}

type planned = { family : string; solve : Protocol.solve }

val build_plan :
  make_case:(seed:int -> (string * Gb_graph.Csr.t) option) -> params -> planned array
(** The requests {!run} issues, in order: a pure function of
    [make_case] and [params] (timeouts and concurrency aside). A
    repeat reuses an earlier fresh job with its own [id]. Linear in
    [params.requests]. *)

val run :
  ?log:(string -> unit) ->
  make_case:(seed:int -> (string * Gb_graph.Csr.t) option) ->
  params ->
  Server.addr ->
  outcome
(** [run ~make_case params addr] executes the plan against a live
    daemon. [make_case ~seed] supplies a (family, graph) pair for a
    derived seed, or [None] when that seed's graph is unusable (fewer
    than 2 vertices) — the planner then tries the next derived seed.
    The generator is injected (rather than calling [Gb_check]
    directly) to keep this library below the fuzz harness in the
    dependency order; the CLI passes
    [Gbisect.Fuzz_generators.generate].

    @raise Failure when no connection can be established, or when
    every connection dies before the plan completes.
    @raise Invalid_argument on nonsensical params (requests or
    concurrency < 1, repeat ratio outside [0,1]). *)

val to_json : outcome -> Gb_obs.Json.t
(** The [results/BENCH_serve.json] artifact: the
    {!Gb_obs.Proc.artifact} frame with [suite = "serve"], then params,
    counts and latency figures. *)

val render : outcome -> string
(** Human-readable multi-line summary for the console. *)
