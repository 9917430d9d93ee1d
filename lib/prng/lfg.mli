(** Subtractive lagged-Fibonacci pseudo-random number generator.

    The paper states that "all random numbers were generated by a Fibonacci
    random number generator"; this module provides a faithful modern
    equivalent: the additive/subtractive lagged-Fibonacci generator of
    Knuth (TAOCP vol. 2, {i ran_array}), with lags (100, 37) over 30-bit
    integers:

    {[ x.(i) = (x.(i - 100) - x.(i - 37)) mod 2^30 ]}

    The generator is deterministic given a seed, has an astronomically
    long period for any seeding that leaves at least one odd word in
    the lag buffer (guaranteed here; Knuth shows ≥ 2^129 for the
    canonical initialisation), and passes the statistical sanity checks
    in the test suite.
    It is the single source of randomness for the whole library: graph
    models, initial bisections, annealing moves and matchings all draw
    from an {!t}, which makes every experiment reproducible from its
    seed. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] initialises a generator from an arbitrary integer
    seed (only the low 30 bits and sign are significant; seeds that
    collide modulo [2^30] yield identical streams). *)

val next : t -> int
(** [next g] returns the next raw 30-bit output, uniform on
    [0, 2^30 - 1], and advances the state. *)

val bits : int
(** Number of random bits per {!next} output (30). *)

val modulus : int
(** [2 ^ bits]. Outputs of {!next} lie in [\[0, modulus)]. *)

val derive_seed : t -> int
(** [derive_seed g] draws two outputs from [g] and packs them into a
    60-bit base seed. The parent advances by {e exactly} two outputs —
    independent of how many child streams are later derived from the
    base — which is what makes parallel fan-out deterministic: the
    caller's stream state after the call does not depend on the job
    count. Feed the result to {!mix_seed}. *)

val mix_seed : int -> int -> int
(** [mix_seed base salt] scrambles [base] and [salt] (a task index)
    into a fresh positive seed with one SplitMix step. Distinct salts
    over the same base give decorrelated seeds, so
    [create ~seed:(mix_seed base i)] is an independent stream per task
    [i] — the seed-splitting scheme documented in PARALLELISM.md. *)
