(** Simulated annealing for graph bisection (paper §II, as instantiated
    by Johnson, Aragon, McGeoch and Schevon).

    The solution space is {e all} two-side assignments, not just
    balanced ones: a move flips one random vertex to the other side,
    and imbalance is discouraged by a quadratic penalty,

    [cost(side) = cut(side) + imbalance_factor * (|V1| - |V2|)^2].

    This soft constraint is what lets annealing tunnel between balanced
    configurations through slightly unbalanced ones.

    {!refine} is Figure 1 of the paper, line for line:

    {v
    1.  GET INITIAL SOLUTION S            — the caller's balanced start
    2.  GET INITIAL TEMPERATURE T         — Schedule.initial_temperature
    3.  WHILE (NOT YET FROZEN) DO         — acceptance-ratio freezing
    5.    WHILE (NOT YET IN EQUILIBRIUM)  — size_factor * n attempts
    7.      PICK A RANDOM SOLUTION S'     — flip a uniform random vertex
    8.      LET delta = CHANGE IN COST    — Problem.delta, O(1)
    9.      IF delta < 0 SET S = S'       — accept downhill
    10.     ELSE SET S = S' WITH          — accept uphill with
              PROBABILITY e^(-delta/T)      Boltzmann probability
    12.   REDUCE TEMPERATURE              — t := cooling * t
    14. OUTPUT SOLUTION S                 — or the best state seen
    v}

    Following the paper's §VII warning that SA "may migrate away from
    an optimal solution ... one must then save the best bisection found
    as the algorithm progresses", the best {e exactly balanced}
    configuration seen is kept, which "increases the time and storage
    requirements". Here the storage is a log of the flips accepted
    since the last best, n entries at most, and the time is replaying
    that log when a new best arrives (one copy of the side array when
    the log has overflowed). On termination the result is the better
    of the best state and the final state after greedy rebalancing. *)

type config = {
  imbalance_factor : float;  (** [> 0]; the default [0.05] follows JAMS. *)
  schedule : Schedule.t;
}

val default_config : config
(** [{ imbalance_factor = 0.05; schedule = Schedule.default }]. *)

type stats = {
  sa : Sa.stats;  (** Annealing counters, one {!Sa.plateau} per temperature. *)
  best_was_snapshot : bool;
      (** [true] when the returned bisection is the tracked best
          balanced state rather than the rebalanced final state. *)
  initial_cut : int;
  final_cut : int;
}

val refine :
  ?config:config ->
  ?trace:(temperature:float -> acceptance:float -> best_cost:float -> unit) ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  int array ->
  int array * stats
(** Anneal from the given balanced assignment; returns a balanced
    assignment in an array of its own (never worse than rebalancing the
    input would be only in expectation — SA is stochastic). [trace]
    fires after every temperature.
    @raise Invalid_argument if the input is invalid or unbalanced. *)

val run :
  ?config:config ->
  ?trace:(temperature:float -> acceptance:float -> best_cost:float -> unit) ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * stats
(** The paper's standard SA: {!refine} from a fresh random balanced
    bisection. *)


(** {1 Reuse by other metaheuristics}

    The underlying problem instance (state = side assignment with a
    cached cut, side counts and per-vertex gains, move = single-vertex
    flip, cost = cut plus quadratic imbalance penalty) is exposed so
    that alternative engines — e.g. {!Threshold} accepting — can run on
    the identical search space. [delta] is O(1); [apply] is O(degree). *)

module Problem : sig
  (* A move is the vertex to flip — public so engines built on this
     problem (replica exchange, threshold accepting) can log and replay
     accepted-move trajectories. *)
  include Sa.Problem with type move = int

  val make : config -> Gb_graph.Csr.t -> int array -> state
  (** Build a state from a balanced side assignment (copied). *)

  val sides : state -> int array
  (** Current side assignment (copied). *)
end
