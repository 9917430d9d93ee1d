(** Induced subgraphs with id mappings.

    Needed by recursive (k-way) partitioning: after a bisection, each
    side becomes its own smaller graph to bisect again. Vertex weights
    and the weights of surviving edges are preserved; edges with an
    endpoint outside the kept set are dropped. *)

type t = {
  graph : Csr.t;  (** The induced subgraph, vertices renumbered 0.. *)
  to_parent : int array;  (** [to_parent.(i)] = original id of new vertex [i]. *)
  from_parent : int array;
      (** [from_parent.(v)] = new id of original vertex [v], or [-1] if
          [v] was not kept. *)
}

val induced : Csr.t -> int array -> t
(** [induced g keep] builds the subgraph induced by the original vertex
    ids in [keep]. New ids follow [keep]'s order.
    @raise Invalid_argument on out-of-range or duplicate ids. *)

val lift_sides : t -> int array -> (int * int) list
(** [lift_sides sub side'] maps a side assignment on the subgraph back
    to [(parent_vertex, side)] pairs. *)
