(** Simulated annealing for graph bisection (paper §II, as instantiated
    by Johnson, Aragon, McGeoch and Schevon).

    The solution space is {e all} two-side assignments, not just
    balanced ones: a move flips one random vertex to the other side,
    and imbalance is discouraged by a quadratic penalty,

    [cost(side) = cut(side) + α (|V1| - |V2|)^2], with α = [0.05],
    the value Johnson et al. use.

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

type stats = {
  sa : Sa.stats;  (** Annealing counters, one {!Sa.plateau} per temperature. *)
  best_was_snapshot : bool;
      (** [true] when the returned bisection is the tracked best
          balanced state rather than the rebalanced final state. *)
  initial_cut : int;
  final_cut : int;
}

val refine :
  ?schedule:Schedule.t ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  int array ->
  int array * stats
(** Anneal from the given balanced assignment under [schedule]
    (default {!Schedule.default}); returns a balanced
    assignment in an array of its own (never worse than rebalancing the
    input would be only in expectation — SA is stochastic). The
    returned stats hold one {!Sa.plateau} per temperature. A graph
    without vertices gets the empty assignment back, with zero
    counters, before any draw.
    @raise Invalid_argument if the input is invalid or unbalanced. *)

val run :
  ?schedule:Schedule.t ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * stats
(** The paper's standard SA: {!refine} from a fresh random balanced
    bisection. *)


(** {1 The Metropolis plateau}

    The problem instance (a side assignment with a cached cut, side
    counts and per-vertex gains; [delta] is O(1), [apply] O(degree))
    and the one loop that makes its moves, which {!Gb_race.Xsa}'s
    chains run too. *)

module Problem : sig
  type state

  val make : Gb_graph.Csr.t -> int array -> state
  (** A state from a balanced side assignment (copied). *)

  (* lint: allow dead-export — test/test_anneal.ml checks the cost
     against one computed from scratch on these sides *)
  val sides : state -> int array
  (** Current side assignment (copied). *)

  val cost : state -> float
  (** Cut plus α times the squared count difference. *)

  val delta : state -> int -> float
  (** Cost change if the vertex flipped; does not mutate. *)

  val apply : state -> int -> unit
  (** Flip the vertex. *)
end

type walk
(** A current state and the best balanced state it has reached, kept
    as above: a side array and a log of the flips since. It also holds
    {!plateau}'s memo, allocated once with the walk. *)

val walk : ?record:bool -> Problem.state -> walk
(** A walk from a balanced state (not copied), which is its first
    best. [~record:true] keeps every accepted flip for {!trajectory}. *)

val state : walk -> Problem.state

val plateau :
  walk -> Gb_prng.Rng.t -> temperature:float -> trials:int -> budget:int -> Sa.plateau
(** Lines 5–11 of Figure 1 at a fixed [temperature]: flip uniform
    random vertices until [trials] (positive) have been proposed or
    [budget] accepted, keeping the best balanced state. Each proposal
    draws what [Rng.int] draws, through {!bounded} with the rejection
    limit computed once per plateau, and an uphill one then what
    [Rng.float rng 1.0] draws: two {!lfg_next} draws, built into the
    same uniform here so that no draw allocates or calls. The acceptance
    probability e^(−Δ/T) is memoised in the walk, keyed on the flip's
    gain and change in squared imbalance, and cleared at the start of
    each plateau. Returns the plateau's counters; emits no span,
    metric or telemetry. *)

(** {2 The plateau's draws}

    {!plateau} draws through these two, inlined, with no call: under
    [-opaque] a call into [Gb_prng] is an indirect call. They work on
    the generator's exposed record ({!Gb_prng.Lfg.t}), and are exported
    for test/test_prng.ml, which holds them to [Lfg.next], [Rng.int]
    and [Rng.float]. *)

val lfg_next : Gb_prng.Rng.t -> int
(** A copy of [Lfg.next]'s step: the same raw output, leaving the
    stream at the same position. *)

val bounded : Gb_prng.Rng.t -> int -> limit:int -> int
(** [bounded g n ~limit:(Rng.rejection_limit n)] is [Rng.int g n]: the
    same value from the same raw draws, leaving the stream at the same
    position. Any other [limit] is unchecked and gives no uniform
    variate. *)

val swap : walk -> walk -> unit
(** Exchange two walks' current states. Each keeps its best and
    trajectory, and its next best is a full copy. *)

val trajectory : walk -> int array
(** The flips accepted so far, in order; empty unless [~record:true]. *)

val finish : Gb_graph.Csr.t -> walk -> int array * bool * int
(** The better of the best state and the current state greedily
    rebalanced (in place), the best winning ties: its sides (not
    copied), whether it is the best state, and its cut. *)
