(** The paper's flagship model [Gbreg(2n, b, d)] ([BCLS87], §IV):
    random simple {e d-regular} graphs on [2n] vertices whose planted
    bisection (first half vs second half) cuts exactly [b] edges.

    Construction:

    + distribute the [b] cross-edge endpoints over side A (uniformly,
      at most [d] per vertex) and likewise over side B, then pair the
      two endpoint multisets uniformly at random, redrawing until the
      cross edges are distinct (simple);
    + inside each side, realise the residual degree sequence
      [d - cross_count(v)] with the configuration model + swap repair
      ({!Degree_seq}).

    The planted split then cuts exactly [b] edges, so the bisection
    width is at most [b]; for [b] well below the expected width of a
    random d-regular graph it equals [b] with high probability — this
    is what makes the model discriminating where [Gnp] is not.

    Feasibility requires [n d - b] even (each side's residual degree
    sum must be even) and [b <= n d]; degree-2 instances degenerate to
    disjoint cycles as the paper notes. *)

type params = {
  two_n : int;  (** Even, >= 4. *)
  b : int;  (** Planted cut size. *)
  d : int;  (** Regular degree, [1 <= d <= n - 1]. *)
}

val feasible : params -> (unit, string) result
(** Check the arithmetic feasibility conditions; [Error reason] if the
    parameters cannot yield a d-regular graph with a b-cut split. *)

val generate : Gb_prng.Rng.t -> params -> Gb_graph.Csr.t
(** @raise Invalid_argument when [feasible] fails (with its reason). *)

val nearest_feasible_b : params -> int
(** Round [b] to the closest value with [n d - b] even (the parity the
    construction needs), clamped to [\[0, n d\]]. Convenience for
    sweeps over [b]. *)
