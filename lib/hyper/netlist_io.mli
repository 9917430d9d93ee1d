(** Plain-text netlist readers.

    Format (one hypergraph per file):

    {v
    # comment
    <n_vertices> <n_nets>
    <v1> <v2> ... <vk>     one line per net, 0-based vertex ids
    v}

    This is the hypergraph sibling of the edge-list format in
    {!Gb_graph.Gio}; the hMETIS format is also readable (1-based,
    header "[nets n]" — note the reversed header order!). *)

val of_string : string -> Hgraph.t
(** @raise Failure with a line-numbered message on malformed input. *)

val read : string -> Hgraph.t

val of_hmetis_string : string -> Hgraph.t
(** Parse the unweighted hMETIS format: header "[n_nets n_vertices]",
    then one 1-based net line per net.
    @raise Failure on malformed input. *)
