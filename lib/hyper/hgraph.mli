(** Hypergraphs: vertices (cells) connected by nets of arbitrary arity.

    The object VLSI bisection is really about. A circuit net joins any
    number of cells; modelling it as a graph forces an {e expansion}
    (see {!Expansion}) that distorts the cut metric — a net spanning
    both sides of a partition should cost 1 however many of its pins
    cross. This substrate carries genuine nets so the FM-style
    bisection in {!Hfm} can optimise the true net-cut objective, and
    the harness can measure exactly what clique/star expansions give
    away.

    Representation: two CSR-style pin maps, net -> member vertices and
    vertex -> incident nets. Nets are deduplicated (a vertex appears at
    most once per net) and stored sorted; single-pin nets are allowed
    but can never be cut. *)

type t

val of_nets : n:int -> int list list -> t
(** [of_nets ~n nets] builds a hypergraph on vertices [0 .. n-1]; each
    net is a list of member vertices (duplicates within a net are
    collapsed). Net ids follow list order.
    @raise Invalid_argument on out-of-range members, empty nets, or
    negative [n]. *)

val n_vertices : t -> int
val n_nets : t -> int
val n_pins : t -> int
(** Total membership count (after dedup). *)

val net_size : t -> int -> int
val vertex_degree : t -> int -> int
(** Number of nets incident to the vertex. *)

val iter_net : t -> int -> (int -> unit) -> unit
(** Members of a net, ascending. *)

val iter_vertex_nets : t -> int -> (int -> unit) -> unit
(** Nets of a vertex, ascending. *)

val net_members : t -> int -> int array

val average_net_size : t -> float

val induced : t -> int array -> t
(** [induced h cells] is the sub-hypergraph on the given cells (new ids
    follow the array's order); each net is restricted to the kept
    cells, and restrictions with fewer than 2 pins are dropped.
    @raise Invalid_argument on out-of-range or duplicate ids. *)

val cut_size : t -> int array -> int
(** Number of nets with members on both sides of the 0/1 assignment. *)

val pp : Format.formatter -> t -> unit
