(** Random-variate toolkit layered over the lagged-Fibonacci core ({!Lfg}).

    Every randomised component of the library (graph models, initial
    bisections, annealing moves, matchings) takes an explicit [Rng.t];
    there is no hidden global state, so experiments replay exactly from
    their seeds. *)

type t
(** A random stream. Mutable: drawing advances the state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh stream. Equal seeds give equal streams. *)

val of_lfg : Lfg.t -> t
(** Wrap an existing core generator (shares and advances its state). *)

(* lint: allow dead-export — snapshot/restore surface of the generator
   API, the replay counterpart of split *)
val copy : t -> t
(** Independent snapshot of the current state. *)

val split : t -> t
(** Child stream, statistically independent of the parent's future. *)

(** {1 Deterministic fan-out (seed splitting)}

    A parallel best-of-k or replicate loop must give task [i] the same
    stream whether it runs first, last, or on another domain. The
    scheme: the orchestrator calls {!derive_seed} once (advancing its
    own stream by exactly two draws, independent of [k] and of the job
    count), then hands task [i] the stream [substream ~base i]. See
    PARALLELISM.md. *)

val derive_seed : t -> int
(** Draw a 60-bit base seed for a family of {!substream}s; advances
    this stream by exactly two outputs. *)

val substream_seed : base:int -> int -> int
(** [substream_seed ~base i] is the seed of the [i]-th child stream of
    [base] (a SplitMix scramble — see {!Lfg.mix_seed}). *)

val substream : base:int -> int -> t
(** [substream ~base i = create ~seed:(substream_seed ~base i)]. *)

val seed_of_string : string -> int
(** Stable (FNV-1a) hash of a string, for naming experiment streams. *)

(** {1 Basic variates} *)

val int : t -> int -> int
(** [int t n] is uniform on [\[0, n)]. Unbiased (rejection sampling).
    @raise Invalid_argument if [n <= 0] or [n > Lfg.modulus]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t x] is uniform on [\[0, x)] with 60 bits of entropy. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val geometric_skip : t -> float -> int
(** [geometric_skip t p] draws the number of failures before the first
    success of a Bernoulli([p]) sequence, i.e. a sample of the geometric
    distribution on {0, 1, 2, ...}. Used to generate G(n,p) graphs in
    O(edges) rather than O(n^2) trials.
    @raise Invalid_argument unless [0 < p <= 1]. *)

val exponential : t -> float -> float
(** [exponential t lambda] samples Exp(lambda).
    @raise Invalid_argument if [lambda <= 0]. *)

(** {1 Collections} *)

val shuffle_in_place : t -> 'a array -> unit
(** Uniform (Fisher-Yates) shuffle. *)

val shuffle : t -> 'a array -> 'a array
(** Copying variant of {!shuffle_in_place}. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0 .. n-1]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on the empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list (O(length)). *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement t ~k ~n] is a uniform k-subset of
    [0 .. n-1], in random order. O(n) time, O(n) space for k close to n;
    uses Floyd's algorithm (O(k) expected) when [k] is small.
    @raise Invalid_argument if [k < 0], [n < 0] or [k > n]. *)
