(** Fiduccia-Mattheyses refinement — the single-move descendant of KL.

    The paper notes that KL "variations are some of the most widely
    used graph bisection algorithms"; FM is the variation that won.
    Instead of swapping pairs, one pass moves single vertices: at each
    step the unlocked vertex of maximal gain whose move keeps the side
    counts within 2 of each other is moved and locked; the committed
    result is the best exactly-balanced prefix. Passes repeat, as in
    {!Kl}, until one gains nothing. With gain buckets a pass is
    O(m) — strictly cheaper than KL's pair search — at the price of a
    slightly weaker move repertoire per step.

    Provided as an extension (not part of the paper's experiments) and
    exercised by the ablation benchmarks; it slots anywhere {!Kl} does,
    including under compaction.

    {b Cost.} A [refine] call allocates one {!Workspace}: seven words
    per vertex (committed side and gains, a four-int pass record, the
    move log) and [2 (2 Delta + 1)] bucket heads, [Delta] the maximum
    weighted degree, and computes every gain and the cut in one O(m)
    sweep; the stats' cuts come from it and from the passes' gains.
    Each pass then costs O(n + Delta) to reset the buckets and insert
    every vertex, O(deg v) per moved vertex to update its unlocked
    neighbours, and O(deg v) per kept move to carry the committed
    gains to the next pass. A pass allocates no array, option or
    closure. *)

type stats = {
  passes : int;
  moves : int;  (** Committed single-vertex moves. *)
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

val one_pass : Gb_graph.Csr.t -> int array -> int array * int
(** Single pass from a balanced assignment; returns the new assignment
    (exactly balanced) and its cut decrease. This is [refine]'s first
    pass on a workspace of its own, so it pays the O(m) set-up too. *)

val refine : ?max_passes:int -> Gb_graph.Csr.t -> int array -> int array * stats
(** Run passes from the given balanced assignment until one gains
    nothing, or until [max_passes] (default [50]) have run. *)

val run : Gb_prng.Rng.t -> Gb_graph.Csr.t -> Gb_partition.Bisection.t * stats
