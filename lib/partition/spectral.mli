(** Spectral bisection — the linear-algebra baseline contemporaries of
    the paper used (Fiedler 1973, Boppana 1987 analysed it on exactly
    the planted models of §IV).

    Split by the signs/median of the {e Fiedler vector}, the
    eigenvector of the second-smallest eigenvalue of the graph
    Laplacian [L = D - A]. Computed with shifted power iteration:
    iterate [x <- (cI - L) x] with [c] above the spectral radius,
    deflating the all-ones eigenvector by re-centring each iterate.
    The iteration runs at most 500 steps and stops early once an
    iterate moves by less than [1e-7] ([1 - |<x, y>|] of two unit
    iterates). Balanced split = vertices at or below the median
    Fiedler value.

    Provided as an extra baseline (not in the paper's comparison) for
    the benchmark harness; spectral + KL refinement is the classic
    combination that multilevel methods later displaced. *)

val fiedler_vector : Gb_graph.Csr.t -> float array
(** Approximate Fiedler vector, unit norm, mean zero. Deterministic
    (fixed internal start vector). On an edgeless or trivially small
    graph, returns an arbitrary balanced indicator. *)

val bisect : Gb_graph.Csr.t -> Bisection.t
(** Median split of {!fiedler_vector}, exactly count-balanced (ties
    broken by vertex id). *)

val bisect_refined :
  refine:(Gb_graph.Csr.t -> int array -> int array) ->
  Gb_graph.Csr.t ->
  Bisection.t
(** Spectral split followed by a refinement pass (typically
    [fun g s -> fst (Gb_kl... )] — supplied as a function to avoid a
    dependency cycle). *)
