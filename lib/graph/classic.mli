(** Deterministic families of structured graphs.

    These are the "special graphs" of the paper's evaluation (grid,
    ladder, binary tree — Table 1 and the appendix) together with the
    usual suspects used in tests as oracles with known bisection widths:

    - a path of [2k] vertices has bisection width 1;
    - a cycle has bisection width 2;
    - an [r x c] grid cut across the short side has width [min r c];
    - a ladder (2 x k grid) has width 2 (cut between two rungs);
    - a complete graph K_{2n} has width n^2.

    All constructors return unit-weighted graphs and raise
    [Invalid_argument] on non-positive size parameters. *)

val path : int -> Csr.t
(** [path n]: vertices [0..n-1], edges [i - i+1]. *)

val cycle : int -> Csr.t
(** [cycle n] for [n >= 3]. *)

val complete : int -> Csr.t
(** [complete n] = K_n. *)

val star : int -> Csr.t
(** [star n]: centre [0] joined to [n] leaves ([n+1] vertices). *)

val grid : rows:int -> cols:int -> Csr.t
(** [grid ~rows ~cols]: 4-connected mesh; vertex [(r, c)] has id
    [r * cols + c]. *)

val ladder : int -> Csr.t
(** [ladder k]: the 2 x k grid ([2k] vertices, [3k - 2] edges), the
    classical KL failure case (Fig. 3 of the paper). *)

val circular_ladder : int -> Csr.t
(** [circular_ladder k]: the prism graph C_k x K_2 ([k >= 3]). *)

val binary_tree : depth:int -> Csr.t
(** [binary_tree ~depth]: the complete binary tree with
    [2^(depth+1) - 1] vertices; root is vertex [0], children of [i] are
    [2i + 1] and [2i + 2]. [depth >= 0]. *)

val kary_tree : arity:int -> depth:int -> Csr.t
(** Complete [arity]-ary tree of the given depth ([arity >= 1]). *)

val hypercube : int -> Csr.t
(** [hypercube d]: the d-dimensional cube on [2^d] vertices
    ([0 <= d <= 20]); bisection width [2^(d-1)]. *)

val disjoint_cycles : count:int -> len:int -> Csr.t
(** [disjoint_cycles ~count ~len]: [count] disjoint cycles of length
    [len >= 3] — the degree-2 regular graphs the paper notes arise from
    [Gbreg(2n, b, 2)] ("a collection of cordless cycles"). *)

val grid_of_side : int -> Csr.t
(** [grid_of_side n] = [grid ~rows:n ~cols:n] (the paper's "N x N grid"). *)

val caterpillar : spine:int -> legs:int -> Csr.t
(** A path of [spine] vertices, each carrying [legs] pendant leaves
    ([spine * (legs + 1)] vertices). Trees with maximal 'bushiness' —
    bisection width 1 when [spine] is even. *)
