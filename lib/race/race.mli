(** Deterministic algorithm portfolio racing.

    A race runs several bisection backends on the {e same} instance,
    concurrently on the ambient {!Gb_par.Pool}, and keeps the best
    result. The tie-break is seed-stable: best cut first, then the
    fixed portfolio order (lowest index wins) — wall-clock is recorded
    per heat but never decides anything, so the outcome is byte-
    identical at any [--jobs] value.

    RNG discipline matches [Gbisect.solve]: one {!Gb_prng.Rng.derive_seed}
    draw, then backend [i] runs on [substream ~base i], so every heat
    sees the same stream however the pool schedules it. Each heat
    records its wall-clock in {!entry.seconds} and reports its cut as a
    [race.<name>.cut] telemetry sample. *)

type backend = {
  name : string;  (** Wire id shown in reports (e.g. ["xsa"]). *)
  solve : Gb_prng.Rng.t -> Gb_graph.Csr.t -> Gb_partition.Bisection.t;
}

type entry = {
  backend : string;
  bisection : Gb_partition.Bisection.t;
  cut : int;
  seconds : float;  (** Wall-clock of the heat; informational only. *)
}

type outcome = {
  winner : entry;
  winner_index : int;  (** Index into the portfolio (and [entries]). *)
  entries : entry array;  (** One per backend, in portfolio order. *)
}

val run :
  backends:backend list -> Gb_prng.Rng.t -> Gb_graph.Csr.t -> outcome
(** Race the portfolio. Adding a backend that does not strictly beat
    the current winner's cut never changes the winner (the metamorphic
    property [test_race] checks).
    @raise Invalid_argument on an empty portfolio. *)
