(** The experiment registry: every table and figure of the paper's
    evaluation, addressable by the ids DESIGN.md assigns.

    [gbisect table] dispatches through this list; running everything in
    order regenerates the whole evaluation section. *)

type experiment = {
  id : string;  (** e.g. ["table1"], ["gbreg-5000-d3"], ["obs1"]. *)
  paper_ref : string;  (** Which table/figure/observation it reproduces. *)
  description : string;
  run : Profile.t -> string;  (** Returns the rendered table. *)
}

val all : experiment list
(** In presentation order: Table 1, specials, 5000-vertex tables,
    2000-vertex tables, observations, ablations. *)

val find : string -> experiment option
val run_selected : Profile.t -> experiment list -> (experiment * string * float) list
(** Run a selection of experiments in order and return
    [(experiment, table, seconds)] for each. The fan-out is inside the
    tables: every cell of a table runs on the ambient {!Gb_par.Pool}
    ([--jobs]) through {!Cell.run}, so the rendered tables are the same
    at any job count (timing columns aside — see PARALLELISM.md).

    When an ambient {!Gb_store.Store} is installed ([--store DIR]),
    every cell is persisted as it completes and reused on re-runs, so
    an interrupted selection resumed against the same store reproduces
    the uninterrupted output, and a warm rerun computes nothing; the
    store's advisory index is refreshed after each experiment. *)
