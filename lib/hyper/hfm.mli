(** Fiduccia-Mattheyses bisection on hypergraphs — the algorithm FM was
    actually invented for (1982), optimising the {e true} net-cut
    objective that graph expansions only approximate.

    One pass: every vertex moves exactly once, highest-gain-first
    within a balance tolerance, gains maintained with the classical
    net-state update rules (a net contributes to a vertex's gain only
    when the vertex is its last pin on one side, or the other side is
    empty); the best exactly-balanced prefix is committed. Gains live
    in a {!Gb_kl.Gain_buckets} queue per side; each pass is O(pins).

    The cut of a bisection is the number of nets with pins on both
    sides ({!Hgraph.cut_size}). *)

type config = {
  max_passes : int;
  until_no_improvement : bool;
  tolerance : int;  (** Max [|#side0 - #side1|] during a pass, >= 2. *)
}

type stats = {
  passes : int;
  moves : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

val refine : ?config:config -> Hgraph.t -> int array -> int array * stats

val run : ?config:config -> Gb_prng.Rng.t -> Hgraph.t -> int array * stats
(** From a fresh random balanced assignment; returns the side array
    (hypergraphs have no [Bisection.t] wrapper) and stats. *)
