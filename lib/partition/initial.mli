(** Initial (starting) bisections.

    The paper starts every run "from two different randomly generated
    initial bisections" — {!random} is that generator. The structured
    alternatives are the cheap constructions the paper alludes to for
    very sparse graphs ("one could just use a depth first search
    algorithm to obtain a better approximation"): grow one side as a
    connected region so that tree-like and cycle-like graphs start from
    a nearly optimal split. All return count-balanced side arrays
    (sizes differ by at most 1 for odd [n]).

    Every construction is a pure function of the RNG state and the
    graph, which is what lets the parallel fan-out over starts (the
    domain pool) hand each random start its own substream and still
    reproduce the sequential results bit for bit. *)

val random : Gb_prng.Rng.t -> Gb_graph.Csr.t -> int array
(** Uniformly random balanced bisection: a random half of the vertices
    goes to side 0. *)

val bfs_grow : Gb_prng.Rng.t -> Gb_graph.Csr.t -> int array
(** Breadth-first region growing from a random seed vertex: the first
    [n/2] vertices discovered (continuing from fresh random seeds when
    a component is exhausted) form side 0. *)

val dfs_stripe : Gb_prng.Rng.t -> Gb_graph.Csr.t -> int array
(** Depth-first variant of {!bfs_grow}; on paths, cycles and trees the
    DFS prefix is a connected half with a very small boundary. *)

val halves : Gb_graph.Csr.t -> int array
(** Deterministic [0 .. n/2-1] vs rest — the planted split for the
    generator models, a deliberately-good start for sanity checks. *)
