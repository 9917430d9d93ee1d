(** Differential and reference oracles for the fuzz harness.

    An oracle is a named property of the whole library checked on one
    generated graph: solver results re-validated against a naive O(m)
    cut recomputation and (on small graphs) the exact branch-and-bound
    optimum, KL/FM incremental gain accounting against from-scratch
    recomputes (a refine that stops before its pass cap leaves one
    more from-scratch pass nothing to gain), the compaction
    cut-correspondence law, matching
    validity/maximality, the replica-exchange purity law (an xsa run
    is a byte-exact function of its derived seed — the [--jobs]
    soundness argument, see the [replica-exchange] oracle), the
    gain-bucket queue against a sorted-list model, and the JSON/store
    codecs and the serving wire protocol ({!Gb_serve.Protocol}, the
    [serve-codec] oracle) against round-trip identity.

    Oracles are deterministic: {!run} derives the oracle's RNG from the
    oracle name and the case's replay seed alone, so a finding replays
    byte-for-byte regardless of execution order, job count, or which
    other oracles ran first — and the shrinker can re-check candidate
    graphs knowing the oracle will draw the same streams. *)

type t = {
  name : string;
  applies : Gb_graph.Csr.t -> bool;
      (** Domain gate; graphs outside it count as passing. *)
  check : Gb_prng.Rng.t -> Gb_graph.Csr.t -> (unit, string) result;
}

val all : t list
(** Every production oracle, in a fixed documented order. *)

val broken : t
(** A deliberately wrong oracle (off-by-one in the single-flip gain
    identity) used by CI fault injection and the tests: the fuzzer must
    report it on essentially every graph with an edge and shrink the
    counterexample to a single edge. Never part of {!all}. *)

val run : t -> seed:int -> Gb_graph.Csr.t -> (unit, string) result
(** [run oracle ~seed g]: [Ok ()] when the graph is outside the
    oracle's domain or the property holds; [Error message] otherwise.
    Exceptions escaping the check (including [Invalid_argument] and
    [Failure] from library validators) become [Error]s. The oracle's
    RNG is [Rng.create ~seed:(Rng.seed_of_string (name ^ "/" ^ seed))],
    so equal inputs give equal outcomes everywhere. *)

val verify_run : Gb_graph.Csr.t -> Gb_partition.Bisection.t -> (unit, string) result
(** The always-on invariant the experiment runner applies to every
    trial result: the packaged bisection's side array is valid for the
    graph, and its cached cut, side counts, side weights and balance
    flag all agree with a from-scratch recomputation. O(m). *)
