(** The workspace that {!Fm} and {!Kl} passes run on, one per
    [refine] call: the committed side and its gains, the pass gains,
    [locked], the move log, and one gain-bucket layout for both sides.

    A pass reinserts every vertex from the committed gains, moves
    vertices in place while it tracks the best prefix, then undoes its
    moves and replays the kept prefix onto the committed side and
    gains. A pass allocates no array, option or closure. *)

type t

val create : Gb_graph.Csr.t -> int array -> t
(** [create g side] copies [side] and computes every gain once (O(m)).
    It allocates seven n-sized arrays and [2 (2 Delta + 1)] bucket
    heads, [Delta] the maximum weighted degree. *)

val side : t -> int array
(** The committed assignment, updated in place by every pass. *)

val fm_pass : t -> tolerance:int -> int * int
(** One FM pass: [(gain, kept)], the cut decrease and the number of
    kept single-vertex moves.
    @raise Invalid_argument if [tolerance < 2]. *)

val kl_pass : t -> int * int
(** One KL pass: [(gain, kept)], the cut decrease and the number of
    kept pair swaps. *)

val pairs_scanned : t -> int
(** Candidate pairs the last KL pass evaluated. *)

val bucket_updates : t -> int
(** Neighbour gain updates the last pass made. *)
