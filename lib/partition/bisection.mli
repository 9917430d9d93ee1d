(** Bisections: two-way partitions of a graph's vertex set.

    A partition is represented by a {e side array} [side] with
    [side.(v)] equal to [0] or [1]. The low-level functions here
    operate on raw side arrays (this is what the KL and SA inner loops
    use); {!t} packages a validated side array with its cached cut and
    per-side totals for results and reporting.

    Terminology matches the paper: the {e cut} of [(V1, V2)] is the
    total weight of edges with one endpoint on each side; a bisection
    is {e balanced} when the side {e counts} differ by at most the
    parity of [n] (exactly equal for even [n] — the paper's graphs all
    have an even number of vertices). On coarse (contracted) graphs
    the relevant quantity is the side {e weight}. *)

(** {1 Raw side-array operations} *)

val compute_cut : Gb_graph.Csr.t -> int array -> int
(** Weighted cut of the assignment. O(m). *)

val side_counts : int array -> int * int
(** Vertices on side 0 and side 1. *)

val side_weights : Gb_graph.Csr.t -> int array -> int * int
(** Vertex-weight totals per side. *)

val gain : Gb_graph.Csr.t -> int array -> int -> int
(** [gain g side v]: decrease of the cut if [v] alone switched sides
    — external weighted degree minus internal weighted degree (the
    paper's [g_v]). *)

val all_gains : Gb_graph.Csr.t -> int array -> int array
(** Every vertex's gain, in one O(m) sweep over the edges. *)

(* lint: allow dead-export — test/test_partition.ml and test/test_kl.ml
   check cut deltas and KL's best pair against it *)
val swap_gain : Gb_graph.Csr.t -> int array -> int -> int -> int
(** [swap_gain g side a b] for [a], [b] on opposite sides: decrease of
    the cut if they exchanged sides — the paper's
    [g_ab = g_a + g_b - 2 w(a,b)].
    @raise Invalid_argument if they are on the same side. *)

val validate_sides : Gb_graph.Csr.t -> int array -> unit
(** @raise Invalid_argument if lengths mismatch or entries are not 0/1. *)

val is_count_balanced : int array -> bool
(** Counts differ by at most 1 (0 for even [n]). *)

(** {1 Packaged bisections} *)

type t

val of_sides : Gb_graph.Csr.t -> int array -> t
(** Copies and validates the array, computes cut and totals. *)

val sides : t -> int array
(** A fresh copy of the side array. *)

val side : t -> int -> int
val cut : t -> int
val counts : t -> int * int
val weights : t -> int * int
val is_balanced : t -> bool
(** Count balance (the paper's definition). *)

(** {1 Repair} *)

val rebalance : Gb_graph.Csr.t -> int array -> int array
(** [rebalance g side] returns a {e count-balanced} copy: while one
    side is strictly larger (by 2 or more), move the vertex of maximum
    gain from the large side to the small one. Cheap cut repair after
    uncompaction or annealing with a soft balance penalty. *)

val rebalance_in_place : Gb_graph.Csr.t -> int array -> unit
