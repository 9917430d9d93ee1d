(** Fiduccia-Mattheyses bisection on hypergraphs — the algorithm FM was
    actually invented for (1982), optimising the {e true} net-cut
    objective that graph expansions only approximate.

    One pass: every vertex moves exactly once, highest-gain-first
    while the side counts stay within 2 of each other, gains
    maintained with the classical net-state update rules (a net
    contributes to a vertex's gain only when the vertex is its last
    pin on one side, or the other side is empty); the best
    exactly-balanced prefix is committed. Passes repeat until one
    gains nothing. Gains live in a {!Gb_kl.Gain_buckets} queue per
    side; each pass is O(pins).

    The cut of a bisection is the number of nets with pins on both
    sides ({!Hgraph.cut_size}). *)

type stats = {
  passes : int;
  moves : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

val refine : ?max_passes:int -> Hgraph.t -> int array -> int array * stats
(** Run passes from the given balanced assignment until one gains
    nothing, or until [max_passes] (default [50]) have run. *)

val run : Gb_prng.Rng.t -> Hgraph.t -> int array * stats
(** From a fresh random balanced assignment; returns the side array
    (hypergraphs have no [Bisection.t] wrapper) and stats. *)
