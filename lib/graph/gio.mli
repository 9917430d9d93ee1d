(** Plain-text serialisation of graphs.

    Two formats:

    - {b edge list} — first line "[n m]", then one "[u v w]" line per
      edge (0-based ids, [w] optional and defaulting to 1). Comments
      start with ['#']. This is the CLI's native format.
    - {b METIS} — the format of Metis/KaHIP graph files (1-based,
      header "[n m \[fmt\]]", one adjacency line per vertex), read-only
      subset covering unweighted and edge-weighted graphs, so published
      test graphs can be fed to the CLI. Comment lines start with ['%']
      (or ['#'], which several tools emit).

    Both readers accept Windows ("\r\n") line endings. They scan each
    line in place: one tokenizer splits it on ' ' and '\t', a token of
    at most 18 digits is read directly, and any other goes through
    [int_of_string_opt]. The writers put digits straight into one
    buffer, and the edge-list rendering is the serve cache key's input.

    Plus a {b DOT} writer for visual inspection of small graphs
    (Figure 3 of the paper is regenerated this way). *)

val to_edge_list_string : Csr.t -> string
val of_edge_list_string : string -> Csr.t
(** @raise Failure with a line-numbered message on malformed input. *)

val write_edge_list : string -> Csr.t -> unit
(** [write_edge_list path g]. *)

val read_edge_list : string -> Csr.t
(** [read_edge_list path]. *)

val to_metis_string : Csr.t -> string
(** Render in the METIS graph format (fmt "1" when any edge weight is
    not 1). Vertex weights are not representable in the supported
    subset. @raise Invalid_argument on non-unit vertex weights. *)

val of_metis_string : string -> Csr.t
(** Parse the METIS graph format (fmt codes "0"/"00" unweighted and
    "1"/"01" edge-weighted are supported).
    @raise Failure on malformed input or unsupported fmt codes. *)

val read_metis : string -> Csr.t

val to_dot : ?highlight_cut:int array -> Csr.t -> string
(** GraphViz source. With [~highlight_cut:side] (a 0/1 per-vertex
    assignment), the two sides are coloured and cut edges drawn bold. *)
