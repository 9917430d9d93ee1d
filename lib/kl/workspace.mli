(** The workspace that {!Fm} and {!Kl} passes run on, one per
    [refine] call: the committed side, its gains and its cut, one
    four-int pass record per vertex (pass side, pass gain and the two
    bucket links), the move log, and one gain-bucket layout for both
    sides.

    A pass reinserts every vertex from the committed gains, moves
    vertices in its pass records while it tracks the best prefix, then
    replays the kept prefix onto the committed side and gains. A pass
    allocates no array, option or closure. *)

type t

val create : Gb_graph.Csr.t -> int array -> t
(** [create g side] copies [side] and computes every gain, the gain
    range and the cut in one O(m) sweep. It allocates seven words per
    vertex (the committed side and gains, the four-int pass records
    and the move log) and [2 (2 Delta + 1)] bucket heads, [Delta] the
    maximum weighted degree.
    @raise Invalid_argument if [side] does not hold one entry per
    vertex. *)

val side : t -> int array
(** The committed assignment, updated in place by every pass. *)

val cut : t -> int
(** The committed assignment's cut, carried through every pass. *)

val fm_pass : t -> int * int
(** One FM pass: [(gain, kept)], the cut decrease and the number of
    kept single-vertex moves. During the pass the side counts differ
    by at most 2, the least that lets a move leave an exactly balanced
    assignment. *)

val kl_pass : t -> int * int
(** One KL pass: [(gain, kept)], the cut decrease and the number of
    kept pair swaps. *)

val pairs_scanned : t -> int
(** Candidate pairs the last KL pass evaluated. *)

val bucket_updates : t -> int
(** Neighbour gain updates the last pass made. *)
