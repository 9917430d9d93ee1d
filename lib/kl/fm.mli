(** Fiduccia-Mattheyses refinement — the single-move descendant of KL.

    The paper notes that KL "variations are some of the most widely
    used graph bisection algorithms"; FM is the variation that won.
    Instead of swapping pairs, one pass moves single vertices: at each
    step the unlocked vertex of maximal gain whose move keeps the side
    counts within a tolerance is moved and locked; the committed result
    is the best exactly-balanced prefix. With gain buckets a pass is
    O(m) — strictly cheaper than KL's pair search — at the price of a
    slightly weaker move repertoire per step.

    Provided as an extension (not part of the paper's experiments) and
    exercised by the ablation benchmarks; it slots anywhere {!Kl} does,
    including under compaction.

    {b Cost.} A [refine] call allocates one {!Workspace}: seven n-sized
    arrays and [2 (2 Delta + 1)] bucket heads, [Delta] the maximum
    weighted degree, and computes every gain once (O(m)). Each pass
    then costs O(n + Delta) to reset the buckets and insert every
    vertex, O(deg v) per moved vertex to update its unlocked
    neighbours, and O(deg v) per kept move to carry the committed
    gains to the next pass. A pass allocates no array, option or
    closure. *)

type config = {
  max_passes : int;
  until_no_improvement : bool;
  tolerance : int;
      (** Maximum allowed [|#side0 - #side1|] {e during} a pass; must
          be >= 2 or no move is legal from an exactly balanced start.
          Commits are always exactly balanced regardless. *)
}

val default_config : config
(** [{ max_passes = 50; until_no_improvement = true; tolerance = 2 }]. *)

type stats = {
  passes : int;
  moves : int;  (** Committed single-vertex moves. *)
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

val one_pass : ?tolerance:int -> Gb_graph.Csr.t -> int array -> int array * int
(** Single pass from a balanced assignment; returns the new assignment
    (exactly balanced) and its cut decrease. This is [refine]'s first
    pass on a workspace of its own, so it pays the O(m) set-up too. *)

val refine : ?config:config -> Gb_graph.Csr.t -> int array -> int array * stats
val run :
  ?config:config -> Gb_prng.Rng.t -> Gb_graph.Csr.t -> Gb_partition.Bisection.t * stats
