(** Matchings: sets of vertex-disjoint edges.

    The compaction heuristic (paper §V, step 1) begins by forming "a
    maximum random matching" — in [BCLS87] and here, a random {e maximal}
    matching: scan the edges in random order, greedily keeping every edge
    whose endpoints are both still free. A maximal matching cannot be
    extended, which is what compaction needs (it halves the graph as much
    as a greedy pass can).

    {!heavy_edge} is the weight-aware policy introduced by multilevel
    partitioners (the descendants of this paper); it is provided for the
    ablation benchmark E-X1. *)

type t = { mate : int array  (** [mate.(u)] is [u]'s partner, or [-1] if unmatched. *) }

val size : t -> int
(** Number of matched edges: half the matched vertices. *)

val random_maximal : Gb_prng.Rng.t -> Csr.t -> t
(** Uniformly random edge order, greedy maximal matching. *)

val heavy_edge : Gb_prng.Rng.t -> Csr.t -> t
(** Visit vertices in random order; match each free vertex to its free
    neighbour of maximum edge weight (ties broken by smallest id). *)

val is_valid : Csr.t -> t -> bool
(** [mate] has one entry per vertex, every partner is another vertex
    in range, [mate] is an involution on the matched vertices, and
    every matched pair is an edge of the graph. *)

val is_maximal : Csr.t -> t -> bool
(** No edge of the graph has both endpoints unmatched. *)
