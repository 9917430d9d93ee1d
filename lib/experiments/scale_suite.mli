(** The scale bench behind [gbisect scale]: one large synthetic
    instance, one solve, end-to-end throughput and peak RSS as a
    schema-versioned artifact ([results/BENCH_scale.json]).

    Where {!Perf_suite} measures nanoseconds over thousands of
    iterations of small kernels, this suite answers the capacity
    question — does a multi-million-edge graph build, fit, and bisect —
    so a single run is the measurement. *)

val schema_version : int

type model =
  | Gnp of { n : int; avg_degree : float }
      (** Erdős–Rényi via the geometric-skip sampler. *)
  | Grid of { rows : int; cols : int }

type algorithm = Mlkl | Mlfm | Fm | Kl
(** The registry algorithms that scale to millions of edges:
    [`Multilevel], [`Mlfm], [`Fm] and [`Kl]. *)

val of_registry : Gb_algo.Algo.t -> algorithm option
(** [None] for a registry algorithm outside the subset. *)

val algorithm_id : algorithm -> string
(** The registry's wire id. *)

type result = {
  model : model;
  algorithm : algorithm;
  seed : int;
  n : int;
  m : int;
  cut : int;
  balanced : bool;  (** Checked from a bit-packed copy of the sides. *)
  levels : int;  (** V-cycle depth (1 for the flat solvers). *)
  build_seconds : float;
  solve_seconds : float;
  edges_per_sec : float;  (** [m] over build + solve. *)
  peak_rss_bytes : int option;  (** VmHWM; [None] off Linux. *)
}

val run : ?ml:Gb_algo.Algo.ml -> algorithm:algorithm -> seed:int -> model -> result
(** Build the instance, solve it with the registry entry, measure.
    Deterministic for a fixed (model, algorithm, seed, [ml]) apart from
    the timing fields. [ml] (default {!Gb_algo.Algo.default_ml}, four
    refinement passes per level) applies to the multilevel solvers. *)

val to_json : result -> Gb_obs.Json.t
(** Adds [schema_version] and the {!Gb_obs.Proc.host} fingerprint. *)

val render : result -> string
(** One human-readable summary line. *)
