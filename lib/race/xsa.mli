(** Replica-exchange (parallel-tempering) simulated annealing for graph
    bisection — the intra-run SA parallelism the 1989 authors could not
    attempt.

    [K] tempered chains run the paper's Metropolis dynamics over the
    {!Gb_anneal.Sa_bisect.Problem} search space (single-vertex flips,
    cut plus its quadratic imbalance penalty, α = 0.05), each at a
    {e fixed} temperature from a geometric ladder that falls from 4.0
    at slot 0 to 0.25 at slot [K-1], fanned out on the ambient
    {!Gb_par.Pool}. A chain's round is one
    {!Gb_anneal.Sa_bisect.plateau} of [sweeps_per_round * n] proposals
    on the slot's {!Gb_anneal.Sa_bisect.walk}, SA's own loop, so each
    slot keeps its best balanced state the way SA does: one side array
    and a log of the flips since that best. After every round, adjacent
    slots (alternating parity per round, as in Myklebust
    arXiv:1505.03068) exchange their current states, making no move,
    with the standard Metropolis swap probability
    [min(1, exp((β_a − β_b)(E_a − E_b)))], so low-energy states migrate
    toward the cold end of the ladder while hot chains keep tunnelling.
    A slot's best stays with the slot; since its log no longer
    describes the state it now holds, its next best is a full copy.

    {b Determinism contract} (see PARALLELISM.md): the orchestrator
    draws exactly two derived bases from the caller's stream — one
    family of substreams seeds the chains, the other the per-round swap
    decisions. Chain [k] draws only from [substream ~base:chain_base k]
    and touches only its own slot, and the swap phase is sequential, so
    the result, every chain's accepted-move trajectory and all counters
    are byte-identical at any [--jobs] value. The fuzz oracles and
    [test_race] lock this down. *)

type config = {
  chains : int;  (** [K >= 1]; slot 0 is the hottest. *)
  rounds : int;  (** Swap rounds ([>= 1]). *)
  sweeps_per_round : int;
      (** Each chain proposes [sweeps_per_round * n] moves per round. *)
}

val default_config : config
(** 4 chains, 12 rounds, 2 sweeps/round. *)

val temperature_ladder : config -> float array
(** The geometric ladder the chains run at, hottest first.
    @raise Invalid_argument on an invalid config. *)

type stats = {
  chains : int;
  rounds : int;
  temperatures : float array;
  attempted : int;  (** Moves proposed, all chains. *)
  accepted : int;
  swaps_attempted : int;
  swaps_accepted : int;
  best_chain : int;  (** Slot index that produced the returned bisection. *)
  best_was_snapshot : bool;
      (** [true]: the tracked balanced snapshot won; [false]: a
          rebalanced final state did. *)
  trajectories : int array array;
      (** Per slot, the accepted vertex flips in order; [[||]] unless
          [run ~record:true]. *)
}

val run :
  ?config:config ->
  ?record:bool ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * stats
(** Run the tempered ensemble; returns the best balanced bisection over
    all slots (best cut, ties to the lowest slot index, snapshot
    preferred over rebalanced final on a tie within a slot).
    [~record:true] additionally keeps every chain's accepted-move
    trajectory — the fuzz replica-exchange oracle replays these.
    @raise Invalid_argument on an invalid config. *)
