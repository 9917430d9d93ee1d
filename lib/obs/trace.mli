(** Span-based tracing with a Chrome [trace_event] sink.

    Algorithms open spans around their structural units — a KL pass, an
    SA temperature plateau, a compaction phase, a runner trial — and
    the active sink turns each into one JSON event per line in the
    Chrome trace-event format ([ph:"X"] complete events and [ph:"i"]
    instants), loadable as-is in {{:https://ui.perfetto.dev}Perfetto}
    or [chrome://tracing]. Every event is named by a {!Span.t}, so the
    names a trace can hold are exactly those {!Span} lists.

    Every complete event carries one arg, [alloc_words]: the words the
    emitting domain allocated between {!start} and {!finish}
    ({!Proc.allocated_words}). The count is exact and includes the
    tracer's own formatting of every event emitted inside the span —
    about 400 to 470 words per child span, depending on its args, and
    210 per instant — which is not subtracted; an empty span reads
    about 30 words. Instants carry no [alloc_words].

    The default sink is {!noop}: {!start} returns a null span, and
    {!finish}/{!instant} return before formatting anything, so the
    instrumentation costs one global read on the hot path and never
    perturbs results or RNG streams.

    Timestamps come from the shared pluggable clock ({!Clock}) so the
    library itself needs no [unix] dependency: the default is
    [Sys.time] (CPU seconds); executables that link [unix] install
    [Unix.gettimeofday] via {!Clock.set} for wall-clock traces.

    {b Domain safety.} Spans may be opened on any domain, and are
    finished on the domain that opened them (the allocation reading is
    per domain): each event line is written under a sink mutex so lines never
    interleave, and the event's [tid] is the emitting domain's id, so
    a parallel run loads in Perfetto as one track per domain. *)

type sink
type span

(* lint: allow dead-export — test/test_obs.ml, test/test_kl.ml and
   test/test_check.ml reinstate the default sink *)
val noop : sink
(** Discards everything (the default). *)

val of_writer : (string -> unit) -> sink
(** Sink calling the writer with one complete JSON line (newline
    included) per event — e.g. [Buffer.add_string] in tests. *)

val to_file : string -> sink
(** Open [path] for writing and stream events to it. The channel is
    closed by {!close} (or at process exit). *)

val set : sink -> unit
(** Install a sink. Installing over a file sink closes it. *)

val close : unit -> unit
(** Flush and close the current sink and revert to {!noop}. *)

val enabled : unit -> bool

val start : unit -> span
(** Begin a span. Free (a null value) when tracing is disabled. *)

val finish : ?args:(string * Json.t) list -> span -> Span.t -> unit
(** [finish span name] emits a complete event named [Span.name name]
    covering the time since [start], with [alloc_words] appended to
    [args]. The name is given
    at the end so that end-of-span values (a pass's gain, a plateau's
    acceptance) can be attached as args. Finish a span on the domain
    that started it: the allocation reading is per domain. *)

val with_span : ?args:(string * Json.t) list -> Span.t -> (unit -> 'a) -> 'a
(** Run a thunk inside a span; the event is emitted even if the thunk
    raises. *)

val instant : ?args:(string * Json.t) list -> Span.t -> unit
(** A zero-duration point event. *)
