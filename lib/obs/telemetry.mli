(** Per-run telemetry records and the trajectory collector.

    The paper's claims are trajectory claims — cut vs. pass for KL
    (Figure 2 protocol), cut vs. temperature for SA (Figure 1) — so a
    telemetry {!record} carries the sampled trajectory of one run,
    not just its endpoint: which algorithm, on which labelled graph,
    from which start, the cut/cost after every pass or plateau, and a
    final metrics snapshot. [gbisect table --out DIR] appends one
    JSON line per record to [DIR/telemetry.jsonl].

    {b Trajectory collection.} Algorithm cores call {!sample} with a
    label from {!Span} ({!Span.kl_pass}, {!Span.sa_plateau},
    {!Span.compaction_level}, ...) at each structural step. Samples go to the innermost active collector
    ({!with_collector}, installed by the experiment runner around each
    trial) and are dropped — one global read — when none is active, so
    instrumented libraries never pay for telemetry they did not ask
    for, and composed algorithms (KL inside compaction) contribute
    their samples to the enclosing run automatically.

    {b Context.} Graph labels and seeds are not threaded through every
    algorithm signature; the harness scopes them with {!with_context}
    and the runner reads them back when it builds the record.

    {b Domain safety.} The collector and the context are {e domain-local}
    (one per domain, via [Domain.DLS]): concurrent runs on pool workers
    each buffer their own trajectory and cannot interleave samples.
    Because a freshly spawned domain starts with an empty context, a
    fan-out point must {!capture} the ambient context before moving
    work to the pool and re-establish it per task with {!with_snapshot}
    (the runner does this). {!emit} hands records to the single global
    writer under a mutex, so every [telemetry.jsonl] line is whole even
    when many domains finish runs simultaneously. The writer sees
    records in completion order, which varies with [--jobs];
    [gbisect table --out] buffers them and writes them sorted by
    {!compare_by_labels}, so [telemetry.jsonl] is the same at any
    [--jobs] up to the [seconds] fields. *)

type record = {
  algorithm : string;  (** "KL", "SA", "CKL", ... *)
  graph : string;  (** Harness label, e.g. ["gbreg-5000-3/b=8/rep0"]. *)
  profile : string;  (** Profile name ("smoke", "quick", "paper"). *)
  seed : int option;  (** The replicate's RNG seed, when the harness knows it. *)
  start : int;  (** Trial index within a best-of-starts protocol. *)
  cut : int;
  seconds : float;
  balanced : bool;
  trajectory : (string * float) list;
      (** Labelled samples in recording order, each label the
          {!Span.name} it was sampled under, e.g.
          [(Span.name Span.kl_pass, cut-after-pass)]. *)
  metrics : (string * Json.t) list;  (** Algorithm-specific final stats. *)
}

val to_json : record -> Json.t

val of_json : Json.t -> record option
(** Inverse of {!to_json} ([None] on any shape mismatch). The result
    store uses it to replay a cached cell's records through {!emit} so
    a resumed run writes the same telemetry stream as an uninterrupted
    one. *)

(* {2 Collector} *)

val sample : Span.t -> float -> unit
(** Record a trajectory point labelled with the span's {!Span.name};
    no-op without a collector. *)

val collecting : unit -> bool

val with_collector : (unit -> 'a) -> 'a * (string * float) list
(** Run a thunk with a fresh innermost collector; returns its result
    and the samples recorded, in order. Nestable (the inner collector
    shadows the outer for its extent). *)

(* {2 Context} *)

val with_context : ?graph:string -> ?seed:int -> (unit -> 'a) -> 'a
(** Scope harness labels; omitted fields inherit the enclosing scope. *)

val context_graph : unit -> string option
val context_seed : unit -> int option

val with_tap : (record -> unit) -> (unit -> 'a) -> 'a
(** Scope a record tap: every {!emit} under it (on this domain, and on
    pool workers that replay a {!capture}d snapshot of it) also calls
    the tap, whether or not a writer is installed. The result store
    wraps each cache-miss cell in a tap to capture the records it must
    replay on later hits. The tap must be domain-safe: it may be called
    concurrently from several workers. *)

type snapshot
(** An immutable copy of one domain's ambient context. *)

val capture : unit -> snapshot
(** The calling domain's current context, for replay on pool workers. *)

val with_snapshot : snapshot -> (unit -> 'a) -> 'a
(** Run a thunk with the captured context as the ambient one (restoring
    the previous context afterwards). Unlike {!with_context} this
    {e replaces} rather than refines: the snapshot is exactly what
    {!capture} saw. *)

(* {2 Emission} *)

val set_writer : (record -> unit) option -> unit
(** Install (or remove) the global record writer. *)

val writer_installed : unit -> bool
val emit : record -> unit
(** Hand a record to the writer; no-op when none is installed. *)

val compare_by_labels : record -> record -> int
(** Total order on records by [(graph, algorithm, profile, seed,
    start)], ties broken by the rest of the record except [seconds]. *)

val to_channel : out_channel -> record -> unit
(** JSONL writer: one [to_json] line per record, flushed. *)
