(** The algorithm registry: one table giving every bisection algorithm
    its wire id, display name and implementation.

    [gbisect solve], [race], [kway] and [scale], the serving daemon,
    the experiment tables and the fuzz oracles all look algorithms up
    here, so a name means the same computation wherever it is used.
    Adding an algorithm is adding one entry to {!all}. *)

type t = [ `Kl | `Sa | `Ckl | `Csa | `Fm | `Multilevel | `Mlfm | `Xsa ]
(** Kernighan-Lin, simulated annealing, their compacted versions (the
    paper's contribution), Fiduccia-Mattheyses, the recursive-compaction
    V-cycle over KL and over FM, and replica-exchange SA. *)

type ml = {
  min_vertices : int;  (** Stop coarsening below this many vertices. *)
  max_levels : int;  (** Maximum coarsening depth. *)
  refine_passes : int;  (** Refinement pass cap at every level. *)
}
(** The V-cycle settings of [`Multilevel] and [`Mlfm]; see
    {!Gb_compaction.Compaction.recursive}. *)

val default_ml : ml
(** [{ min_vertices = 64; max_levels = 20; refine_passes = 4 }]. Four
    passes per level cost about 1 % of cut against refining to
    quiescence, and keep the solve linear in the instance size. *)

type outcome = {
  bisection : Gb_partition.Bisection.t;
  stats : (string * Gb_obs.Json.t) list;
      (** Final counters as telemetry records carry them. *)
  final_cut : int option;  (** The cut the algorithm's own stats report. *)
}

type entry = {
  algorithm : t;
  id : string;  (** Wire id: ["kl"], ["sa"], ..., ["mlkl"], ["mlfm"], ["xsa"]. *)
  name : string;  (** Display name in tables: ["KL"], ..., ["MLKL"]. *)
  run :
    ?schedule:Gb_anneal.Schedule.t ->
    ?xsa:Gb_race.Xsa.config ->
    ?ml:ml ->
    Gb_prng.Rng.t ->
    Gb_graph.Csr.t ->
    outcome;
      (** One run from one random start. An entry reads only the
          settings that apply to it; omitted ones take its defaults. *)
}

val all : entry list
(** In the order [kl sa ckl csa fm mlkl mlfm xsa]. *)

val find : t -> entry
val id : t -> string
val name : t -> string

val ids : string list
(** The wire ids of {!all}, in order. *)

val of_id : string -> t option
(** Inverse of {!id}, case-insensitive; ["multilevel"] is an alias of
    ["mlkl"]. *)

val solve :
  ?ml:ml -> starts:int -> t -> Gb_prng.Rng.t -> Gb_graph.Csr.t -> Gb_partition.Bisection.t
(** Best of [starts] runs on the ambient {!Gb_par.Pool}. Start [i] runs
    on [Rng.substream ~base i], where [base] is one
    {!Gb_prng.Rng.derive_seed} draw from the given stream, and equal
    cuts go to the lowest start index, so the result is bit-identical
    at any [--jobs] value.
    @raise Invalid_argument if [starts < 1]. *)
