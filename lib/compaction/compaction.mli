(** The compaction heuristic — the paper's contribution (§V, after
    [BCLS87]).

    Both KL and SA degrade on graphs of small (< 4) average degree.
    Compaction manufactures density: contract a random maximal matching
    and bisect the denser contracted graph first, then use the result
    as a warm start on the original graph.

    {v
    1. form a random maximal matching M of G
    2. G' := contract M           (average degree rises)
    3. (A', B') := bisect G'      (any base heuristic)
    4. (A, B)  := uncompact (A', B') to G
    5. run the base heuristic on G starting from (A, B)
    v}

    Contracted pairs carry weight 2, so the coarse bisection can be off
    by a few vertices once projected; the uncompacted start is repaired
    to exact count balance with {!Gb_partition.Bisection.rebalance}
    before step 5.

    The module provides the paper's CKL and CSA, a generic combinator
    over any refiner, and — as an extension — the {e recursive}
    (multilevel) variant that repeats steps 1-2 until the graph stops
    shrinking or a size floor is reached, then refines back up the
    whole hierarchy. This is precisely the scheme that later became
    standard in multilevel partitioners. *)

type refiner = Gb_prng.Rng.t -> Gb_graph.Csr.t -> int array -> int array
(** A bisection improver: given a balanced starting assignment on a
    (possibly weighted) graph, return a balanced assignment at most as
    costly. The RNG parameter serves stochastic refiners (SA). *)

type policy = Random_matching | Heavy_edge_matching
(** Matching used for coarsening; the paper's choice is
    [Random_matching], [Heavy_edge_matching] is the multilevel
    descendant's (ablation E-X1). *)

type stats = {
  fine_vertices : int;
  coarse_vertices : int;
  coarse_average_degree : float;
  coarse_cut : int;  (** Cut found on the contracted graph. *)
  projected_cut : int;  (** Same cut seen on the fine graph after
                            uncompaction and rebalancing. *)
  final_cut : int;
  levels : int;  (** 1 for plain compaction; depth for {!recursive}. *)
}

val bisect :
  ?policy:policy ->
  refiner:refiner ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * stats
(** [bisect ~refiner rng g] is the five-step scheme above with
    [refiner] as the base heuristic (started on the coarse graph from a
    random balanced assignment, as the paper starts its base runs). *)

val recursive :
  ?min_vertices:int ->
  ?max_levels:int ->
  ?observer:
    (level:int ->
    fine:Gb_graph.Csr.t ->
    coarse:Gb_graph.Csr.t ->
    coarse_side:int array ->
    projected:int array ->
    rebalanced:int array ->
    unit) ->
  refiner:refiner ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * stats
(** Multilevel extension: coarsen repeatedly by random maximal
    matchings (default floor [min_vertices = 64], [max_levels = 20],
    stopping early when a level shrinks the graph by less than 10 %),
    bisect the coarsest graph, then project-rebalance-refine level by
    level. [levels] in the returned stats counts coarsening steps + 1.

    [observer] is invoked once per uncoarsening step, coarsest first
    ([level] counts 1, 2, ...), with the level's fine and coarse
    graphs, the coarse-side assignment being projected, the raw
    projection, and the rebalanced start handed to the refiner. It
    exists for verification (the fuzz oracle checks projected cuts and
    balance at every level) and must not mutate its arguments. *)

(** {1 The paper's four algorithms, packaged} *)

val kl_refiner : ?max_passes:int -> unit -> refiner
val sa_refiner : ?schedule:Gb_anneal.Schedule.t -> unit -> refiner
val fm_refiner : ?max_passes:int -> unit -> refiner

val ckl : Gb_prng.Rng.t -> Gb_graph.Csr.t -> Gb_partition.Bisection.t * stats
(** Compacted Kernighan-Lin. *)

val csa :
  ?schedule:Gb_anneal.Schedule.t ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * stats
(** Compacted simulated annealing. *)
