(** Gbisect — graph bisection by Kernighan-Lin, simulated annealing and
    compaction.

    An OCaml reproduction of {e Bui, Heigham, Jones & Leighton,
    "Improving the Performance of the Kernighan-Lin and Simulated
    Annealing Graph Bisection Algorithms", DAC 1989}.

    This is the single entry point: it re-exports every sub-library
    under a stable name and offers a one-call {!solve}. Typical use:

    {[
      let rng = Gbisect.Rng.create ~seed:42 in
      let g = Gbisect.Classic.grid ~rows:30 ~cols:30 in
      let result = Gbisect.solve ~algorithm:`Ckl rng g in
      Printf.printf "cut %d\n" (Gbisect.Bisection.cut result.bisection)
    ]} *)

(** {1 Substrates} *)

module Rng = Gb_prng.Rng
module Lfg = Gb_prng.Lfg
module Graph = Gb_graph.Csr
module Builder = Gb_graph.Builder
module Classic = Gb_graph.Classic
module Traverse = Gb_graph.Traverse
module Graph_io = Gb_graph.Gio
module Matching = Gb_graph.Matching
module Subgraph = Gb_graph.Subgraph
module Contraction = Gb_graph.Contraction

(** {1 Random graph models (paper §IV)} *)

module Gnp = Gb_models.Gnp
module Planted = Gb_models.Planted
module Bregular = Gb_models.Bregular
module Degree_seq = Gb_models.Degree_seq
module Geometric = Gb_models.Geometric

(** {1 Partitions} *)

module Bisection = Gb_partition.Bisection
module Initial = Gb_partition.Initial
module Exact = Gb_partition.Exact
module Spectral = Gb_partition.Spectral
module Cycles = Gb_partition.Cycles
module Tree_exact = Gb_partition.Tree_exact

(** {1 Algorithms} *)

module Kl = Gb_kl.Kl
module Fm = Gb_kl.Fm
module Gain_buckets = Gb_kl.Gain_buckets
module Sa = Gb_anneal.Sa
module Schedule = Gb_anneal.Schedule
module Sa_bisect = Gb_anneal.Sa_bisect
module Compaction = Gb_compaction.Compaction
module Kway = Gb_compaction.Kway

module Xsa = Gb_race.Xsa
(** Replica-exchange (parallel-tempering) SA: K tempered chains on the
    ambient {!Pool} with deterministic seed-derived swap schedules —
    the [`Xsa] algorithm. *)

module Race = Gb_race.Race
(** Deterministic algorithm portfolio racing — the engine behind
    {!race} and [gbisect race]. *)

module Algo = Gb_algo.Algo
(** The algorithm registry: wire id, display name and implementation
    of every algorithm, plus the best-of-starts {!Algo.solve} behind
    {!solve}, {!race} and the serving daemon. *)

(** {1 Hypergraphs (VLSI netlists; extension)} *)

module Hgraph = Gb_hyper.Hgraph
module Hfm = Gb_hyper.Hfm
module Expansion = Gb_hyper.Expansion
module Netlist_io = Gb_hyper.Netlist_io
module Random_netlist = Gb_hyper.Random_netlist
module Hcoarsen = Gb_hyper.Hcoarsen
module Placement = Gb_hyper.Placement

(** {1 Observability} *)

module Obs = Gb_obs
(** Structured tracing, counters and run telemetry — see
    {!Gb_obs.Trace}, {!Gb_obs.Metrics}, {!Gb_obs.Telemetry}. All
    instrumentation is off by default, is domain-safe, and never
    perturbs RNG streams or results. *)

(** {1 Multicore execution} *)

module Pool = Gb_par.Pool
(** Deterministic fan-out over OCaml 5 domains. Executables call
    {!Gb_par.Pool.set_jobs} from their [--jobs] flag; {!solve} and the
    experiment harness pick the value up ambiently. Results are
    bit-identical at every job count — see PARALLELISM.md. *)

(** {1 Result store} *)

module Store = Gb_store.Store
(** Crash-safe, content-addressed store of experiment cells. The bench
    harness and CLI open one from [--store DIR] and install it with
    {!Gb_store.Store.set_current}; the experiment drivers then reuse
    stored cells instead of recomputing them, so interrupted runs
    resume byte-identically — see DESIGN.md. *)

(** {1 Property fuzzing} *)

module Fuzz = Gb_check.Fuzz
(** The seeded differential fuzzer behind [gbisect fuzz]: generate
    adversarial graphs, cross-check every solver and data structure
    against reference oracles, and shrink violations to tiny
    replayable counterexamples — the correctness backstop the lint
    layer is for determinism. *)

module Fuzz_generators = Gb_check.Generators
(** The fuzzer's graph corpus (paper models at miniature scale,
    classics, degenerate shapes), each case a pure function of its
    replay seed. *)

module Fuzz_oracles = Gb_check.Oracles
(** The oracle suite: solver cuts vs naive recomputation and the exact
    optimum, KL/FM gain accounting, compaction cut correspondence,
    matching validity, gain-bucket model checking, codec round-trips. *)

module Fuzz_shrink = Gb_check.Shrink
(** Greedy vertex/edge-deletion counterexample minimisation. *)

(** {1 Serving} *)

module Serve_protocol = Gb_serve.Protocol
(** The newline-delimited JSON wire protocol (version 1) spoken by
    [gbisect serve]: request/response codec, framing, and error codes —
    see SERVING.md for the normative specification. *)

module Serve = Gb_serve.Server
(** The partitioning daemon behind [gbisect serve]: a single-domain
    event loop over a Unix or TCP socket that schedules solve jobs onto
    the ambient {!Pool}, answers repeat queries from the result
    {!Store}, and sheds load with [overloaded] responses when its
    bounded queue fills. *)

module Serve_client = Gb_serve.Client
(** A minimal blocking OCaml client for the protocol (used by
    [gbisect bombard] and the tests). *)

module Bombard = Gb_serve.Bombard
(** The deterministic load generator behind [gbisect bombard]: a
    seeded client mix over the fuzz-corpus families with a
    configurable repeat-query ratio, reporting throughput, latency
    percentiles and cache hit rate as [results/BENCH_serve.json]. *)

(** {1 Experiment harness (paper §VI)} *)

module Profile = Gb_experiments.Profile
module Runner = Gb_experiments.Runner
module Registry = Gb_experiments.Registry
module Experiment_table = Gb_experiments.Table

module Perf_suite = Gb_experiments.Perf_suite
(** The seeded micro-benchmark suite and noise-aware regression gate
    behind [gbisect perf]: min-of-k timings and deterministic
    allocs/op for the hot kernels, written as schema-versioned
    [results/BENCH_core.json] artifacts. *)

module Scale_suite = Gb_experiments.Scale_suite
(** The capacity bench behind [gbisect scale]: one multi-million-edge
    synthetic instance, one solve, end-to-end edges/sec and peak RSS,
    written as the schema-versioned [results/BENCH_scale.json]
    artifact. *)

(** {1 One-call interface} *)

type algorithm = Algo.t
(** The registered algorithms — see {!Algo.all} for ids, display names
    and implementations. *)

type result = {
  bisection : Gb_partition.Bisection.t;
  algorithm : algorithm;
  seconds : float;
      (** Time of the solve call on {!Gb_obs.Clock} (CPU seconds by
          default; wall-clock once the executable installs
          [Unix.gettimeofday]). *)
}

val solve :
  ?algorithm:algorithm ->
  ?starts:int ->
  ?ml:Algo.ml ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  result
(** [solve rng g] bisects [g], keeping the best of [starts] (default 2,
    the paper's protocol) runs of [algorithm] (default [`Ckl] — the
    paper's recommendation for graphs of average degree <= 4, and a
    sound default everywhere: compaction never hurt quality in its
    experiments), timed around {!Algo.solve}: the result is
    bit-identical at every [--jobs] value, and equal to what the
    serving daemon returns for the same job.
    @raise Invalid_argument if [starts < 1]. *)

val default_portfolio : algorithm list
(** [[`Kl; `Ckl; `Mlfm; `Xsa]] — one cheap pass, the paper's winner,
    the multilevel workhorse, and the tempered ensemble. *)

val race :
  ?portfolio:algorithm list ->
  ?starts:int ->
  ?ml:Algo.ml ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_race.Race.outcome
(** [race rng g] runs every portfolio backend concurrently on the same
    instance (ambient {!Pool}) and keeps the best cut; ties resolve to
    the earliest backend in the portfolio order, never to wall-clock.
    Backend [i] solves on [Rng.substream ~base i] of one derived base
    with [starts] (default 1) inner starts, so the whole outcome is
    byte-identical at any [--jobs] value — [gbisect race] output is
    CI-diffed across job counts to enforce exactly this.
    @raise Invalid_argument on an empty portfolio or [starts < 1]. *)
