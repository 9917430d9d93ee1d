(** The standard seeded micro-benchmark suite behind [gbisect perf].

    Nine benches cover the hot kernels the tables spend their time in:
    CSR construction, gain-bucket operations, one KL pass, one FM pass,
    an SA plateau, matching + contraction, a result-store round trip,
    fuzz-corpus generation throughput, and the text path of one served
    Gnp(5000) solve request (framing, JSON decode, graph parse and
    canonical re-render, answer encode). Every bench draws its inputs
    from a fixed seed ([Rng.seed_of_string ("perf/" ^ name)]), so the
    work — and therefore the {e allocation} per operation — is
    bit-reproducible on any machine; only the timings vary with the
    host.

    Measurement is min-of-k: each bench runs [runs] times after one
    warmup, and the point estimate is the fastest run (the one least
    disturbed by the OS). The per-run spread is kept as a
    median/median-absolute-deviation pair so {!check} can widen its
    time tolerance on noisy hosts instead of crying wolf.

    The committed baseline lives at [results/BENCH_core.json]
    (schema-versioned, host-fingerprinted; see EXPERIMENTS.md for the
    refresh procedure). {!check} compares a fresh run against it:
    allocation regressions are {e failures} (allocs/op is deterministic,
    so any drift is a real code change) when the baseline was produced
    by the same OCaml version, while time regressions are always
    {e warnings} (shared CI runners are too noisy to gate on). *)

type bench_result = {
  bench : string;
      (** Bench name; the KL, FM and SA benches carry the name of the
          span they time ({!Gb_obs.Span.kl_pass}, ...). *)
  iters : int;  (** Operations per run (ns/op divides by this). *)
  ns_per_op : float;  (** Min-of-k wall nanoseconds per operation. *)
  ns_median : float;  (** Median over the k runs. *)
  ns_mad : float;  (** Median absolute deviation over the k runs. *)
  alloc_words_per_op : float;
      (** Min-of-k allocated words (minor + major - promoted) per
          operation; deterministic for a fixed code path. *)
  promoted_words_per_op : float;  (** From the min-allocation run. *)
  minor_collections : int;  (** GC activity of the fastest run. *)
  major_collections : int;
}

type suite_result = {
  runs : int;
  results : bench_result list;  (** Sorted by bench name. *)
  peak_rss_bytes : int option;  (** Process peak RSS after the suite. *)
}

val run : ?runs:int -> scratch:string -> unit -> suite_result
(** Execute the whole suite. [runs] is k for min-of-k (default 5,
    clamped to at least 1). [scratch] is a writable directory for the
    store round-trip bench (fresh subdirectories are created inside
    it; the caller owns cleanup). *)

val to_json : suite_result -> Gb_obs.Json.t
(** The {!Gb_obs.Proc.artifact} frame with [suite = "core"], then
    [runs], sorted [benches] and [peak_rss_bytes]. This is the exact
    shape committed as [results/BENCH_core.json]. *)

val render : suite_result -> string
(** Human-readable table of the suite (ns/op, allocs/op, GC counts). *)

type verdict = {
  report : string;  (** Ascii delta report, one line per bench. *)
  failures : int;  (** Hard failures: deterministic metrics regressed. *)
  warnings : int;  (** Time drift, missing benches, host mismatches. *)
}

val check : ?tolerance:float -> baseline:Gb_obs.Json.t -> suite_result -> verdict
(** Compare a fresh run against a parsed baseline artifact.

    [tolerance] (default [0.05]) is the relative slack for both
    metrics. For time the effective tolerance per bench is
    [max tolerance (3 * ns_mad / ns_median)] of the {e current} run —
    a host too noisy to measure precisely gets a proportionally wider
    band — and exceeding it is only ever a warning. For allocs/op the
    tolerance is taken as-is and exceeding it is a failure when the
    baseline's [host.ocaml_version] equals this binary's (different
    compilers legitimately allocate differently — downgraded to a
    warning). A baseline whose [schema_version] is not
    {!Gb_obs.Proc.schema_version} is a failure; benches present on one
    side only are warnings. *)
