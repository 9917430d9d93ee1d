(** Deterministic corpus of adversarial graphs for the fuzz harness.

    A {!case} is a pure function of its integer {e replay seed}: the
    seed selects a family and every size/density/weight parameter, so
    [gbisect fuzz --replay S] rebuilds the identical graph on any
    machine, and the shrinker can re-check candidates knowing the
    oracle will see the same derived streams. Instances are kept tiny
    (a few to ~20 vertices) so the exact branch-and-bound oracle
    applies to most of the corpus.

    Families cover the paper's models at miniature scale ([Gnp],
    [Gbreg], planted, geometric), the classic structured graphs
    (grid, ladder, tree, clique, star, cycle collections), and the
    degenerate shapes that break naive invariant code: the empty
    graph, isolated vertices, disconnected unions, paths, weighted
    contraction-style graphs, and multi-edge inputs (duplicate edges
    that the CSR builder must merge). *)

type case = {
  family : string;  (** Which generator produced the graph. *)
  seed : int;  (** Replay seed; regenerates the identical case. *)
  graph : Gb_graph.Csr.t;
}

(* lint: allow dead-export — test/test_lock.ml and test/helpers.ml walk
   every family *)
val families : string list
(** Names of every family, in selection order. *)

val generate : seed:int -> case
(** [generate ~seed] derives family and parameters from [seed] alone.
    Equal seeds give structurally equal graphs. *)

val describe : case -> string
(** One-line summary: family, vertex/edge counts. *)

val edges_repr : Gb_graph.Csr.t -> string
(** Compact replayable rendering ["n=4: 0-1(1) 1-2(2)"] used when
    printing shrunk counterexamples. *)

(** {1 Bench corpus helpers}

    The [gbisect perf] micro-benchmarks build their model instances
    with these constructors, and the fuzzer draws its model instances
    through the same ones, so the two corpora cannot drift apart. *)

val gbreg_instance :
  Gb_prng.Rng.t -> two_n:int -> b:int -> d:int -> Gb_graph.Csr.t
(** A [Gbreg] instance with [b] snapped to the nearest feasible value
    (the adjustment every harness site needs). *)

val g2set_instance :
  Gb_prng.Rng.t -> two_n:int -> avg_degree:float -> bis:int -> Gb_graph.Csr.t
(** A planted-bisection instance parameterised by average degree, as
    the appendix tables specify it. *)
