(** Random simple graphs with a prescribed degree sequence.

    The configuration model: give each vertex [deg.(v)] stubs, pair the
    stubs uniformly at random, then {e repair} the self-loops and
    parallel edges this creates with random double-edge swaps (which
    preserve all degrees). The result is a uniformly-shuffled simple
    realisation of the sequence — the standard workhorse behind random
    regular graphs and the [Gbreg] model.

    Repair, rather than wholesale rejection, keeps the expected running
    time near-linear even for degree sequences where a clean pairing is
    unlikely. If a sequence is so constrained that swaps stall (e.g.
    near-complete graphs), generation restarts from a fresh pairing; a
    genuinely non-graphical sequence raises. *)

val is_graphical : int array -> bool
(** Erdős–Gallai test: is the sequence realisable by a simple graph? *)

val generate : Gb_prng.Rng.t -> int array -> Gb_graph.Csr.t
(** [generate rng deg] samples a simple graph with [deg.(v)] the degree
    of vertex [v].
    @raise Invalid_argument if some degree is negative, exceeds [n-1],
    or the degree sum is odd.
    @raise Failure if the sequence fails the Erdős–Gallai test. *)

val edge_arrays : Gb_prng.Rng.t -> int array -> int array * int array
(** [edge_arrays rng deg] is the draw {!generate} makes, as endpoint
    arrays [(src, dst)]: its [k]-th edge is [{src.(k), dst.(k)}], and
    [generate rng deg] is [Csr.of_edge_arrays ~n src dst]. Same draws,
    same exceptions; for models that build one graph from several
    parts. *)

val random_regular : Gb_prng.Rng.t -> n:int -> d:int -> Gb_graph.Csr.t
(** [random_regular rng ~n ~d]: uniform-ish random [d]-regular simple
    graph on [n] vertices. @raise Invalid_argument if [n * d] is odd or
    [d >= n] or [d < 0]. *)
