(** Deterministic multicore fan-out over OCaml 5 domains.

    The experiment harness has two embarrassingly parallel fan-out
    points — the cells of a table ({!Gb_experiments.Cell}) and the
    independent random starts of one run ({!Gb_experiments.Runner}) —
    and both share one requirement: {e the parallel schedule must never be
    observable in the results}. A pool therefore provides order-preserving
    combinators only: tasks are indexed, every task owns its inputs (in
    particular its own RNG stream, derived from a base seed and the task
    index — see {!Gb_prng.Rng.substream}), and results land in their
    input slot regardless of which domain computed them or in which
    order. Running with 1 domain, 4 domains, or 64 domains yields
    bit-identical values; see PARALLELISM.md for the full contract.

    {b Scheduling.} The scheduler is deliberately work-stealing-free:
    workers claim contiguous chunks of the index space from a single
    atomic cursor ([fetch_and_add]) until it is exhausted. That is all
    the load balancing a best-of-k / replicate workload needs, and it
    keeps the layer dependency-free and auditable. The calling domain
    participates as a worker, so [create ~domains:n] uses exactly [n]
    domains ([n - 1] spawned), and a pool costs nothing until used —
    domains are spawned per call and joined before the call returns.

    {b Nesting.} Fan-out points nest (a table's cells run algorithms
    from several starts). A task that is
    already executing on a pool worker runs any nested pool call
    sequentially, so the domain count stays bounded by the outermost
    fan-out and nested calls cannot deadlock. Because every combinator
    is deterministic, collapsing an inner level to sequential never
    changes its results. Single-task calls (and 1-domain pools) run
    inline in the caller {e without} claiming worker status, so a
    table of one cell still runs that cell's starts in parallel.

    {b Exceptions.} If a task raises, the first exception (by claim
    order) is re-raised in the caller after all domains are joined;
    remaining unclaimed chunks are abandoned.

    This module is safe to use from any domain but the global job-count
    setting ({!set_jobs}) is meant to be configured once at startup by
    the executable ([--jobs]). *)

type t
(** A pool configuration: how many domains a fan-out may use. Pools are
    cheap values (no resources are held between calls). *)

val create : domains:int -> t
(** [create ~domains] makes a pool that fans out over [max 1 domains]
    domains (the caller plus [domains - 1] spawned workers). *)

val domains : t -> int
(** The domain count the pool was created with. *)

(** {1 The global job count}

    Executables surface one [--jobs N] flag; libraries read the ambient
    value back with {!current} rather than threading a pool through
    every signature. *)

val set_jobs : int -> unit
(** [set_jobs n] sets the ambient job count to [max 1 n]. Call once at
    startup; [1] restores fully sequential execution. *)

val jobs : unit -> int
(** The ambient job count: the last {!set_jobs} value, or
    [Domain.recommended_domain_count ()] if never set. *)

val current : unit -> t
(** [create ~domains:(jobs ())] — the pool the harness fan-out points
    use. *)

(** {1 Order-preserving combinators}

    All combinators evaluate [f] exactly once per index and are
    schedule-oblivious: the result is the same as the sequential
    left-to-right evaluation, for any domain count. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init pool n f] is [Array.init n f] computed on the pool: result
    slot [i] holds [f i]. The primitive the others are built on. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] is [Array.map f xs] computed on the pool. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f xs] is [List.map f xs] computed on the pool. *)

val best_by : t -> compare:('a -> 'a -> int) -> (int -> 'a) -> int -> 'a
(** [best_by pool ~compare f n] computes [f 0 .. f (n-1)] on the pool
    and returns the minimum under [compare], breaking ties in favour of
    the {e lowest} index — i.e. exactly what the sequential loop
    [fold over i keeping the strictly better candidate] returns. This
    is the best-of-k-starts merge.
    @raise Invalid_argument if [n < 1]. *)

val in_worker : unit -> bool
(** True while executing inside a pool task on a multi-domain fan-out
    (nested pool calls will therefore run sequentially). Exposed for
    tests and diagnostics. *)
