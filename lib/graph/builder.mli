(** Mutable accumulator for constructing {!Csr} graphs edge by edge.

    Random-graph generators need cheap "does this edge already exist?"
    queries and incremental insertion; this module provides them, then
    freezes into the immutable CSR form. *)

type t

val create : ?expected_edges:int -> int -> t
(** [create n] starts an empty builder on vertices [0 .. n-1]. *)

val add_edge : ?weight:int -> t -> int -> int -> unit
(** [add_edge b u v] inserts edge [{u,v}] (default weight 1); if the
    edge already exists, the weights are summed.
    @raise Invalid_argument on self-loops, out-of-range endpoints, or
    non-positive weight. *)

val add_edge_if_absent : t -> int -> int -> bool
(** [add_edge_if_absent b u v] inserts a unit edge unless it already
    exists; returns [true] iff it was inserted. Self-loop attempts
    return [false] without raising (convenient in rejection loops). *)

(* lint: allow dead-export — test/test_graph.ml reads the membership
   index add_edge_if_absent relies on *)
val mem_edge : t -> int -> int -> bool

val build : t -> Csr.t
(** Freeze. The builder remains usable afterwards. *)
