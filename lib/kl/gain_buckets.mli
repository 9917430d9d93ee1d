(** Bucket priority queue of vertices keyed by gain.

    The classic Kernighan-Lin / Fiduccia-Mattheyses data structure: one
    doubly-linked list per possible gain value, plus a moving maximum
    pointer. Gains are bounded by the maximum weighted degree [Delta],
    giving O(1) insert/remove/update and amortised-cheap max queries.
    The hypergraph FM ([Gb_hyper.Hfm]) queues its vertices here; the
    graph KL and FM passes inline the same layout in {!Workspace}.

    Vertices are identified by integers in [0 .. capacity-1]; each may
    be present at most once. Gains must stay within [[-range, range]]
    (checked). Within a bucket, the most recently inserted vertex is
    visited first (LIFO), which matches the conventional FM tie-break. *)

type t

val create : capacity:int -> range:int -> t
(** [create ~capacity ~range] holds vertices [0 .. capacity-1] with
    gains in [[-range, range]]. *)

val insert : t -> int -> int -> unit
(** [insert t v gain]. @raise Invalid_argument if [v] is already
    present or the gain is out of range. *)

val remove : t -> int -> unit
(** @raise Invalid_argument if absent. *)

val update : t -> int -> int -> unit
(** [update t v gain]: change the key of a present vertex. *)

val mem : t -> int -> bool
(** [mem t v] is true when vertex [v] is currently present. O(1). *)

val gain_of : t -> int -> int
(** @raise Invalid_argument if absent. *)

val cardinal : t -> int
(** Number of vertices currently present. O(1). *)

val max_gain : t -> int option
(** Highest gain currently present, [None] when empty. *)

val pop_max : t -> (int * int) option
(** Remove and return a vertex of maximal gain. *)

val iter_desc : t -> f:(int -> int -> [ `Continue | `Stop ]) -> unit
(** Visit present vertices in non-increasing gain order until [f]
    answers [`Stop]. [f] must not modify the structure. *)
