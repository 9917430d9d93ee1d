(** Process-level readings (allocation, peak RSS) and the frame that
    every benchmark artifact is written in. *)

val allocated_words : unit -> float
(** Words the calling domain has allocated so far: [Gc.minor_words ()]
    plus the major words minus the promoted words of [Gc.counters].
    The difference of two readings on one domain is exact and a pure
    function of the code path between them, so it is deterministic run
    to run (the property the [gbisect perf] allocation gate and the
    trace spans' [alloc_words] rely on). A reading itself allocates a
    dozen words. [Gc.counters]' own minor-word field is not used: on
    OCaml 5.1 it counts the words allocated since the last minor
    collection at one eighth. *)

val peak_rss_bytes : unit -> int option
(** Peak resident set size ([VmHWM] of [/proc/self/status]); [None]
    where procfs is unavailable. Monotone over the process lifetime, so
    it is reported per run. *)

val schema_version : int
(** Format version of every [results/BENCH_*.json] artifact. Bump it
    when an artifact's JSON shape changes incompatibly. *)

val artifact : suite:string -> (string * Json.t) list -> Json.t
(** The one frame of a benchmark artifact: [schema_version], [suite],
    then [host] ([ocaml_version], [word_size], [os_type], [hostname],
    [recommended_domains]), then [fields] in order. The host
    fingerprint keeps a baseline from being compared silently across
    incompatible toolchains, and [recommended_domains] says whether a
    parallel speedup could show at all. *)

val parallel_row :
  domains:int -> id:string -> sequential:float -> parallel:float -> (string * Json.t) list
(** One timed row of the [parallel] artifact: [id], [sequential_s],
    [parallel_s], then [speedup] ([sequential /. parallel]) only when
    [domains], the host's [recommended_domains], is above 1. On a
    one-domain host the parallel run's domains take turns on one CPU,
    so the ratio is no speedup and the field is left out. *)
