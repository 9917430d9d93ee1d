(** Edge contraction: coalesce matched pairs into single coarse vertices.

    This is step 2 of the compaction heuristic (paper §V): "Form a new
    graph G' by contracting the edges in the random matching M; all
    vertices incident to the two original vertices are now incident to
    the new vertex just formed."

    Parallel edges created by the contraction are merged with their
    weights {e summed}, and a coarse vertex's weight is the sum of the
    weights of the fine vertices it absorbs. With this convention the
    fundamental correspondence holds exactly (it is a property test):

    for any partition [P'] of [G'], the weighted cut of [P'] in [G']
    equals the weighted cut in [G] of [P'] pulled back along the
    projection — contracted pairs never straddle the cut, and every
    other fine edge appears in the coarse cut with its full weight. *)

type t = {
  coarse : Csr.t;  (** The contracted graph [G']. *)
  fine_to_coarse : int array;  (** [fine_to_coarse.(v)] = coarse id of [v]. *)
}

val contract : Csr.t -> Matching.t -> t
(** Contract every matched pair. Coarse vertex ids are assigned in
    order of the smallest fine member, and the coarse graph is
    {!Csr.quotient} by that numbering. Total vertex weight and the
    weight of non-internal edges are preserved. *)

val project_to_fine : t -> 'a array -> 'a array
(** [project_to_fine c assign] maps a per-coarse-vertex assignment back
    to fine vertices (members inherit their coarse vertex's value). *)
