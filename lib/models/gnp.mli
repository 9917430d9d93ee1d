(** The Erdős–Rényi model [Gnp(2n, p)] (paper §IV).

    Every one of the [C(n,2)] possible edges is present independently
    with probability [p]; the expected average degree is [(n-1) p].

    The paper uses this model as a control and points out its weakness
    for benchmarking bisection heuristics: for fixed [p] the minimum cut
    is close to half of all edges, so a random bisection is nearly
    optimal and the model "may not distinguish good heuristics from
    mediocre ones" (demonstrated in [examples/model_comparison.ml]).

    Generation is O(n + m) via geometric skips over the ordered pair
    sequence, not O(n^2) coin flips. *)

val generate : Gb_prng.Rng.t -> n:int -> p:float -> Gb_graph.Csr.t
(** [generate rng ~n ~p] samples a graph on [n] vertices.
    @raise Invalid_argument unless [n >= 0] and [0 <= p <= 1]. *)

val edge_arrays : Gb_prng.Rng.t -> n:int -> p:float -> int array * int array * int
(** [edge_arrays rng ~n ~p] is the draw {!generate} makes, as endpoint
    arrays [(src, dst, len)]: edge [k < len] is [{src.(k), dst.(k)}],
    and [generate rng ~n ~p] is [Csr.of_edge_arrays ~n ~len src dst].
    Same draws, same exceptions. *)

val with_average_degree : Gb_prng.Rng.t -> n:int -> avg_degree:float -> Gb_graph.Csr.t
(** [with_average_degree rng ~n ~avg_degree] picks
    [p = avg_degree / (n - 1)] so the expected average degree is as
    requested. @raise Invalid_argument if the implied [p] leaves
    [\[0, 1\]] or [n < 2]. *)
