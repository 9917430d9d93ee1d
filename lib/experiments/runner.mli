(** Running algorithms under the paper's measurement protocol.

    Protocol (paper §VI): each procedure is run "from two different
    randomly generated initial bisections"; the reported cut is the
    {e best} of the two trials and the reported time is the {e total}
    over both (including initial-bisection generation). {!best_of_starts}
    implements exactly that, with the start count taken from the
    profile. *)

val paper_four : Gb_algo.Algo.t list
(** [[`Sa; `Csa; `Kl; `Ckl]] — the paper's column order. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] is [f ()] and the seconds it took on {!Gb_obs.Clock}. *)

type run = {
  cut : int;
  seconds : float;
  balanced : bool;  (** Sanity flag; always [true] for correct algorithms. *)
}

val run_once_record :
  ?start:int ->
  ?collect:bool ->
  Profile.t ->
  Gb_prng.Rng.t ->
  Gb_algo.Algo.t ->
  Gb_graph.Csr.t ->
  run * Gb_obs.Telemetry.record
(** One run of any registered algorithm from one fresh random start,
    with the profile's annealing schedule, timed on {!Gb_obs.Clock}
    (wall-clock once the executable installs [Unix.gettimeofday]) and
    wrapped in a trace span; when a telemetry writer is installed
    ({!Gb_obs.Telemetry.set_writer}) it emits its record. Returns the
    run and the telemetry record: graph and
    seed labels from the ambient {!Gb_obs.Telemetry.with_context}, the
    labelled cut trajectory collected during the run ([kl.pass],
    [sa.plateau], [compaction.level], ...), and the algorithm's final
    stats. [start] is the trial index recorded in the record.
    [collect] forces trajectory collection on (or off); by default the
    trajectory is collected only when a telemetry writer is installed,
    so uninstrumented runs pay nothing for it.

    Every result passes {!Gb_check.Oracles.verify_run} before it is
    recorded: the bisection's cached cut, side counts and balance flag
    are recomputed from scratch and a disagreement raises [Failure]
    (exit 1 through the CLI) instead of contaminating a table. *)

val best_of_starts : Profile.t -> Gb_prng.Rng.t -> Gb_algo.Algo.t -> Gb_graph.Csr.t -> run
(** Best cut over [profile.starts] runs; seconds are summed. Each
    trial is traced and telemetered individually with its start index.

    This is a parallel fan-out point: the starts run on the ambient
    {!Gb_par.Pool} ([--jobs]). Start [i]'s RNG is
    [Rng.substream ~base i] where [base] is drawn from [rng] by
    {!Gb_prng.Rng.derive_seed} (advancing [rng] by exactly two draws),
    so cuts, RNG streams, and the caller's stream afterwards are
    bit-identical at every job count — only the wall-clock differs.
    See PARALLELISM.md. *)

type quad = { bsa : run; bcsa : run; bkl : run; bckl : run }

val quads : quad Cell.codec
(** The result-store codec of a quad. It keeps the whole of each
    [run], [seconds] included, so a table replayed from the store
    reproduces even its timing columns byte for byte. *)

val paper_quad : Profile.t -> Gb_prng.Rng.t -> Gb_graph.Csr.t -> quad
(** {!best_of_starts} for the paper's four algorithms on one graph. *)

val averaged_quads : quad list -> quad
(** Column-wise means (cuts rounded to nearest int) — how the paper
    averages its 3-seed [Gbreg] and 7-seed [Gnp] rows. *)
