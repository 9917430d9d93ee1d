(** Immutable undirected graphs in compressed-sparse-row form.

    This is the substrate every algorithm in the library runs on.
    Graphs carry integer {e vertex weights} and {e edge weights}:

    - input graphs are typically unit-weighted;
    - edge contraction ({!Contraction}) merges parallel edges by summing
      their weights and sums the weights of coalesced vertices, so that
      cut sizes and balance constraints on the coarse graph correspond
      exactly to those on the fine graph.

    Vertices are [0 .. n-1]. Self-loops are not representable (the
    builder rejects or drops them); parallel edges are merged at build
    time. Adjacency lists are sorted by neighbour id, enabling
    logarithmic edge queries. *)

type t

(** {1 Construction} *)

val of_edges : ?vertex_weights:int array -> n:int -> (int * int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] vertices from weighted
    edges [(u, v, w)]. Parallel edges are merged (weights summed);
    self-loops are rejected.
    @raise Invalid_argument on out-of-range endpoints, non-positive
    weights, or self-loops. *)

val of_unweighted_edges : n:int -> (int * int) list -> t
(** [of_unweighted_edges ~n edges] gives every edge weight 1. *)

val of_edge_arrays :
  ?vertex_weights:int array ->
  ?edge_weights:int array ->
  n:int ->
  ?len:int ->
  int array ->
  int array ->
  t
(** [of_edge_arrays ~n src dst] builds from parallel endpoint arrays:
    the [k]-th edge is [{src.(k), dst.(k)}] with weight
    [edge_weights.(k)] (default 1). Only the first [len] entries are
    read (default: the full arrays), so callers can pass growable
    buffers without trimming. Semantically identical to {!of_edges} on
    the same edge multiset — parallel edges merge, slices sort — but
    allocates no intermediate boxed tuples, which is what makes
    million-edge ingestion feasible.
    @raise Invalid_argument as {!of_edges}. *)

val empty : int -> t
(** [empty n] has [n] vertices (unit weight) and no edges. *)

val quotient : t -> n:int -> int array -> t
(** [quotient g ~n cls] is the graph whose vertex [c] is the class
    [{u | cls.(u) = c}] of [g]'s vertices, for [c] in [0 .. n-1]: a
    class weighs the sum of its members' weights, edges inside a class
    vanish, and the edges between two classes merge into one whose
    weight is their sum. Equal to {!of_edge_arrays} on the mapped
    cross edges with those vertex weights, built in linear sweeps
    without sorting.
    @raise Invalid_argument if [cls] does not have one entry per
    vertex, a class is out of [0 .. n-1] or empty, or a merged weight
    exceeds the int32 range. *)

(** {1 Scale limits}

    Neighbour ids and adjacency offsets are stored compactly (int32),
    bounding representable graphs. Ingestion boundaries validate
    declared sizes against these limits {e before} allocating, so a
    hostile header fails with one diagnostic instead of an OOM. *)

val max_vertices : int
val max_edges : int

val max_weight : int
(** Largest vertex or edge weight, merged ones included. *)

val validate_scale : n:int -> m:int -> unit
(** @raise Failure "graph too large: ..." when either bound is
    exceeded. *)

(** {1 Size and weights} *)

val n_vertices : t -> int
val n_edges : t -> int
(** Number of undirected edges (merged; each counted once). *)

val vertex_weight : t -> int -> int
val total_vertex_weight : t -> int
val total_edge_weight : t -> int

(** {1 Adjacency} *)

val degree : t -> int -> int
(** Number of distinct neighbours. *)

val weighted_degree : t -> int -> int
(** Sum of incident edge weights. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g u f] calls [f v w] for every edge [{u,v}] of
    weight [w], in increasing order of [v]. *)

val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

type ia = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

val adjacency : t -> ia * ia * ia
(** [adjacency g] is [(xadj, adjncy, adjwgt)], the graph's own arrays
    (not copies): vertex [u]'s neighbours are [adjncy.{k}], with
    weights [adjwgt.{k}], for [k] from [xadj.{u}] to [xadj.{u+1} - 1],
    in increasing order of neighbour. Every edge appears in both
    endpoints' slices. For kernels that walk slices without a closure
    call per neighbour; they must not write to the arrays. *)

val mem_edge : t -> int -> int -> bool
(** O(log degree). *)

val edge_weight : t -> int -> int -> int
(** Weight of edge [{u, v}], or [0] if absent. *)

(** {1 Whole-graph iteration} *)

val iter_edges : t -> (int -> int -> int -> unit) -> unit
(** [iter_edges g f] calls [f u v w] once per undirected edge, with
    [u < v]. *)

val fold_edges : t -> init:'a -> f:('a -> int -> int -> int -> 'a) -> 'a
val edges : t -> (int * int * int) list
(** All edges as [(u, v, w)] with [u < v]. *)

(** {1 Statistics and predicates} *)

val average_degree : t -> float
val is_unit_weighted : t -> bool
(** All vertex and edge weights are 1. *)

val equal : t -> t -> bool
(** Structural equality (same vertices, weights and adjacency). *)

val check : t -> unit
(** Validate internal invariants (sorted adjacency, symmetry, weight
    totals). @raise Failure describing the violated invariant. Used by
    tests and after deserialisation. *)

val pp : Format.formatter -> t -> unit
(** Short human-readable summary ("graph: 12 vertices, 17 edges, ..."). *)
