(** The one vocabulary of span, instant and trajectory-label names.

    Every trace event name and every telemetry trajectory label is one
    of these values: {!Trace.finish}, {!Trace.with_span},
    {!Trace.instant} and {!Telemetry.sample} take a [t], never a
    string, so a misspelt or unlisted name fails the build instead of
    silently emptying a figure or zeroing a benchmark metric. Readers
    that match names in a trace or a [telemetry.jsonl] file (the
    convergence figures, the [gbisect perf] bench ids) compare against
    {!name} of the same value.

    [kl.pass], [fm.pass] and [sa.plateau] name both a span and the
    trajectory label sampled at its end: the cut (for SA, the best
    cost) so far. KL and FM also sample the cut before the first pass. *)

type t

val name : t -> string
(** The name as it appears in trace events and telemetry records. *)

(** {1 Experiment harness} *)

val experiment : t  (** [experiment]: one registered table. *)

val runner_trial : t  (** [runner.trial]: one run of one algorithm in a table cell. *)

(** {1 Refinement kernels} *)

val kl_pass : t  (** [kl.pass]: one Kernighan-Lin pass. *)

val fm_pass : t  (** [fm.pass]: one Fiduccia-Mattheyses pass. *)

val sa_anneal : t  (** [sa.anneal]: one whole anneal of [Sa_bisect.refine]. *)

val sa_plateau : t  (** [sa.plateau]: one temperature of an anneal. *)

(** {1 Compaction and the V-cycle} *)

val compaction_match : t  (** [compaction.match]: one maximal matching. *)

val compaction_contract : t  (** [compaction.contract]: one contraction. *)

val compaction_coarsen : t  (** [compaction.coarsen]: a V-cycle's coarsening. *)

val compaction_coarse_refine : t
(** [compaction.coarse_refine]: the solve of the contracted or coarsest graph. *)

val compaction_project : t
(** [compaction.project]: one-level compaction's projection and rebalance. *)

val compaction_refine : t
(** [compaction.refine]: one-level compaction's refinement of the fine graph. *)

val compaction_uncoarsen : t
(** [compaction.uncoarsen]: projection, rebalance and refinement of one
    V-cycle level. *)

val compaction_level : t
(** [compaction.level]: a trajectory label only, the cut after the coarse
    solve and after each refined level. *)

val compaction_projected : t
(** [compaction.projected]: a trajectory label only, the cut of a
    projected, rebalanced start before its refinement. *)

(** {1 Replica exchange and the daemon} *)

val xsa_round : t  (** [xsa.round]: one round of chain sweeps and swaps. *)

val serve_solve : t  (** [serve.solve]: one solve the store did not answer. *)

val serve_cache_hit : t  (** [serve.cache_hit]: an instant, one solve answered from the store. *)
