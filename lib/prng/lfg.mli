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

type t = { state : int array; mutable pos : int }
(** Mutable generator state, exposed so that a hot loop can inline
    {!next}'s step ([Gb_anneal.Sa_bisect]'s plateau does). The
    invariant every function here keeps: [state] holds the last 100
    outputs as a circular buffer of length 100, and [pos], in
    [\[0, 100)], is the slot the next output overwrites. The next
    output is [(state.(pos) - state.((pos + 63) mod 100)) land
    (2^30 - 1)], the output 100 draws back minus the one 37 back. It
    is stored at [pos], and [pos] advances by one, from 99 back to 0.
    Only {!create} makes a state, and only a copy of that step may
    write one. *)

val create : seed:int -> t
(** [create ~seed] initialises a generator from an arbitrary integer
    seed. The whole seed goes through the SplitMix scramble that fills
    the lag buffer, its bits above the 30th included, so seeds equal
    modulo [2^30] give unrelated streams: seeds 1 and [1 + 2^30] start
    at 851,099,727 and 484,874,023. *)

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
