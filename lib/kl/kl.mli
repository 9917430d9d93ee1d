(** The Kernighan-Lin graph bisection heuristic [KL70] (paper §III).

    One {e pass} (Figure 2 of the paper): starting from a balanced
    bisection [(A, B)], repeatedly pick the unlocked pair
    [a ∈ A, b ∈ B] maximising the swap gain
    [g_ab = g_a + g_b - 2 w(a, b)], tentatively exchange them, lock
    them, and update the gains of their unlocked neighbours. When all
    pairs are exhausted, commit the prefix of exchanges whose
    cumulative gain is maximal (if positive). Passes repeat until one
    yields no improvement or a pass limit is hit. Running on after a
    pass that gains nothing would change nothing: such a pass commits
    no exchange, so every later pass repeats it.

    This implementation selects the best pair exactly but efficiently:
    both sides sit in the gain buckets of one {!Workspace}, scanned in
    tandem with the classical bound — once [g_a + g_b] cannot beat the
    best candidate found, no later pair can, because the [-2 w(a, b)]
    correction is never positive. The [Reference] submodule is a
    direct quadratic transcription of Figure 2 used as a test oracle.

    Works on weighted graphs (as produced by compaction): gains are
    weighted, balance is by vertex count (the paper's convention —
    coarse-graph weight imbalance is repaired after projection).

    {b Cost.} A [refine] call allocates one workspace, as {!Fm} does,
    and computes every gain and the cut in one O(m) sweep; a pass
    allocates no array, option or closure. *)

val default_max_passes : int
(** [50], the pass cap of {!refine} when none is given. *)

type stats = {
  passes : int;  (** Passes actually executed, including the final
                     zero-gain one unless the cap stopped the run. *)
  swaps : int;  (** Total committed pair exchanges. *)
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;  (** Cut decrease of each pass, in order. *)
}

val one_pass : Gb_graph.Csr.t -> int array -> int array * int
(** [one_pass g side] performs a single KL pass and returns the new
    side assignment together with its (non-negative) cut decrease.
    [side] is not modified.
    @raise Invalid_argument if [side] is invalid or the side counts
    differ by more than 1. *)

val refine : ?max_passes:int -> Gb_graph.Csr.t -> int array -> int array * stats
(** Run passes from the given assignment until one gains nothing, or
    until [max_passes] (default {!default_max_passes}) have run. *)

val run : Gb_prng.Rng.t -> Gb_graph.Csr.t -> Gb_partition.Bisection.t * stats
(** The paper's standard KL: {!refine} from a fresh random balanced
    bisection. *)

(** Direct transcription of Figure 2 (quadratic pair selection),
    kept as an executable specification for the test suite. *)
module Reference : sig
  val one_pass : Gb_graph.Csr.t -> int array -> int array * int
end
