(** Compaction for hypergraphs — the paper's §V heuristic transplanted
    to netlists, which is precisely the step that turned into hMETIS-
    style multilevel hypergraph partitioning.

    Coarsening pairs each free cell with a free cell it shares a net
    with, {e preferring the smallest shared net} (a 2-pin net is the
    strongest possible affinity — contracting it removes the net
    entirely); the matched pairs are merged, nets are mapped through
    (collapsed pins dedup, single-pin images drop), and the correspond-
    ence [coarse net cut of P = fine net cut of the projection of P]
    holds exactly — a property test.

    [bisect] = one-shot compaction around {!Hfm} (CHFM, the netlist
    sibling of the paper's CKL). *)

type contraction = {
  coarse : Hgraph.t;
  fine_to_coarse : int array;
  coarse_to_fine : int array array;
}

val match_cells : Gb_prng.Rng.t -> Hgraph.t -> int array
(** Smallest-net-first matching: [mate.(v)] is [v]'s partner or [-1].
    Maximal in the sense that no 2-member net joins two unmatched
    cells. *)

val contract : Hgraph.t -> int array -> contraction
(** Contract a matching (given as a mate array).
    @raise Invalid_argument if [mate] is not a valid involution. *)

val project : contraction -> int array -> int array
(** Coarse side assignment -> fine side assignment. *)

val rebalance : Hgraph.t -> int array -> int array
(** Greedy exact count rebalance under the net-cut gain (hypergraph
    sibling of {!Gb_partition.Bisection.rebalance}). *)

type stats = {
  fine_cells : int;
  coarse_cells : int;
  coarse_cut : int;
  final_cut : int;
  levels : int;
}

val bisect : Gb_prng.Rng.t -> Hgraph.t -> int array * stats
(** CHFM: coarsen once, {!Hfm} on the coarse netlist from a random
    start, project, rebalance, {!Hfm} refine. *)
