(** Random-variate toolkit layered over the lagged-Fibonacci core ({!Lfg}).

    Every randomised component of the library (graph models, initial
    bisections, annealing moves, matchings) takes an explicit [Rng.t];
    there is no hidden global state, so experiments replay exactly from
    their seeds. *)

type t = Lfg.t
(** A random stream: the lagged-Fibonacci generator itself. Mutable:
    drawing advances the state. The representation is exposed so that
    a hot loop can draw without a call (see "Draws for a hot loop");
    everything else draws through the functions below. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh stream. Equal seeds give equal streams. *)

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
(** [int t n] is uniform on [\[0, n)]. Unbiased (rejection sampling):
    it draws raw outputs until one is below [rejection_limit n], and
    returns that one [mod n].
    @raise Invalid_argument if [n <= 0] or [n > Lfg.modulus]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t x] is uniform on [\[0, x\]], from two raw draws with 53
    bits of resolution: [x] times [(hi + lo / 2^30) / 2^30], where the
    sum of the two 30-bit draws [hi], then [lo], is rounded to a
    53-bit double. The rounding can reach [x] itself, with
    probability 2^-54 (when [hi = 2^30 - 1] and [lo >= 2^30 - 64]). *)

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

(** {1 Draws for a hot loop}

    A loop that draws from one range many times computes the rejection
    limit once, and draws with its own inline copy of {!Lfg.next}'s
    step on the exposed {!t} (the invariant it keeps is {!Lfg.t}'s):
    under the dev profile's [-opaque], every call into this module or
    {!Lfg} is an indirect call, and a float returned across a module
    boundary is boxed. [Gb_anneal.Sa_bisect]'s plateau is that loop.
    Its copy must draw what {!int} and {!float} draw: a proposal's
    vertex is raw outputs until one is below [rejection_limit n], that
    one [mod n], and an uphill proposal's uniform is
    [(float hi +. float lo *. 0x1p-30) *. 0x1p-30] for two consecutive
    raw outputs [hi], then [lo], which is [float t 1.0] bit for bit. *)

val rejection_limit : int -> int
(** [rejection_limit n] is the largest multiple of [n] not above
    [Lfg.modulus]: {!int} redraws every raw value at or above it.
    @raise Invalid_argument if [n <= 0] or [n > Lfg.modulus]. *)

(** {1 Collections} *)

val shuffle_in_place : t -> 'a array -> unit
(** Uniform (Fisher-Yates) shuffle. *)

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
