(** The planted-bisection model [G2set(2n, pA, pB, bis)] (paper §IV).

    Vertices [0 .. n-1] form side A, [n .. 2n-1] side B. Within each
    side, edges appear independently with probability [pA] (resp.
    [pB]); then {e exactly} [bis] cross edges are placed uniformly at
    random between the sides (distinct pairs). The planted split
    therefore has cut exactly [bis], an upper bound on the bisection
    width.

    The paper's caveat, reproduced by our tests: with small average
    degree (< 4) and large [bis] the true width is often well below
    [bis] (sparse halves fall apart into components that can be
    re-balanced cheaply), and below average degree 2 the width is
    usually 0. *)

type params = {
  two_n : int;  (** Total vertex count; must be even and >= 2. *)
  p_a : float;
  p_b : float;
  bis : int;  (** Exact number of cross edges; [0 <= bis <= n^2]. *)
}

val generate : Gb_prng.Rng.t -> params -> Gb_graph.Csr.t
(** @raise Invalid_argument on out-of-range parameters. *)

val planted_sides : params -> int array
(** The planted assignment: [0] for A-vertices, [1] for B. *)

val params_for_average_degree :
  two_n:int -> avg_degree:float -> bis:int -> params
(** Symmetric parameters ([p_a = p_b]) chosen so the {e expected}
    average degree of the whole graph is [avg_degree] given [bis]
    cross edges: [p = (avg_degree - 2 bis / 2n) * n / (n (n - 1))].
    Used to reproduce the appendix tables "with average degree 2.5 / 3
    / 3.5 / 4". @raise Invalid_argument if infeasible. *)
