(** Monotonic counters and histograms for the algorithm hot paths.

    Counters and histograms are interned by name in a global registry
    ([kl.pairs_scanned], [sa.accepted_uphill], ...), so a library can
    declare its instruments once at module initialisation and bump them
    from inner loops. Recording is gated on a single global switch
    (default {e off}): when disabled, {!add} and {!observe} return
    immediately, and nothing the algorithms compute depends on a
    counter's value — results and RNG streams are identical either way.

    Histograms are log2-bucketed (bucket [i] counts observations in
    [[2^(i-1), 2^i)]), which is the right shape for "swaps per pass" or
    "matching size" style distributions whose interesting structure is
    multiplicative.

    {b Domain safety.} Every instrument is backed by [Atomic] cells:
    {!incr}, {!add} and {!observe} are lock-free fetch-and-add (or CAS
    loops for the float accumulators) and may be called concurrently
    from any number of domains with no lost updates — counts are exact,
    which the two-domain hammer test asserts. Interning and snapshots
    take a mutex that hot paths never touch. A histogram snapshot taken
    {e while} other domains observe is per-field atomic but not a
    consistent cross-field cut (its [count] may briefly lag its [sum]);
    the harness only snapshots after fan-outs have joined. *)

type counter
type histogram

type histogram_snapshot = {
  count : int;
  sum : float;
  min_value : float;  (** [+inf] when empty. *)
  max_value : float;  (** [-inf] when empty. *)
  buckets : (float * int) list;
      (** [(upper_bound, count)] for each non-empty log2 bucket,
          ascending; an observation [v] lands in the first bucket with
          [v < upper_bound]. *)
}

val set_enabled : bool -> unit
(** Master switch; [false] at startup. *)

val counter : string -> counter
(** Intern (create or look up) the counter with this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val histogram : string -> histogram
(** Intern the histogram with this name. *)

val observe : histogram -> float -> unit

(* lint: allow dead-export — benchmark/batch.ml:111 and
   benchmark/service.ml:192 zero the registry before a traced run *)
val reset : unit -> unit
(** Zero every registered counter and histogram (keeps registrations). *)

val counters : unit -> (string * int) list
(** All registered counters with their values, sorted by name. *)

val histograms : unit -> (string * histogram_snapshot) list
(** All registered histograms, sorted by name. *)

val snapshot_json : unit -> Json.t
(** [{"counters": {...}, "histograms": {...}}] — the "final metrics
    snapshot" embedded in telemetry records and [--metrics] output.

    {b Ordering guarantee.} Instruments appear sorted by name in every
    dump ({!counters}, {!histograms}, this snapshot and {!render}),
    never in registration or hash order — so two runs that register the
    same instruments produce byte-identical metrics sections regardless
    of module initialisation order, and dumps diff cleanly. A test
    locks this in. *)

val render : unit -> string
(** Human-readable multi-line listing (the CLI's [--metrics] output),
    instruments sorted by name. *)
