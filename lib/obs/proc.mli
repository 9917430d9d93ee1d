(** Process-level readings: allocation, peak RSS and the host
    fingerprint that benchmark artifacts carry. *)

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

val host : unit -> (string * Json.t) list
(** Host fingerprint fields ([ocaml_version], [word_size], [os_type],
    [hostname]) embedded in benchmark artifacts so a baseline is never
    silently compared across incompatible toolchains. *)
