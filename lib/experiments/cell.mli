(** The cell engine: the one place a table's measurements are seeded,
    stored and fanned out.

    A cell is one (table tag, row label, replicate) coordinate with the
    seed its table derives for it, and the value its table computes
    from that seed alone. Tables hand {!run} their rows and get back
    every replicate's value, row by row; they keep only the averaging
    and the rendering.

    {!run} is also the harness's parallel fan-out point: every cell of
    every row goes into one task array on the ambient {!Gb_par.Pool}
    ([--jobs]). A cell depends on nothing but its seed, so the values,
    and the tables rendered from them, are identical at any job count.
    Fan-outs inside a cell (best-of-starts) run sequentially on a pool
    worker, and use the domains only when a table has a single cell. *)

type 'a codec = {
  encode : 'a -> Gb_obs.Json.t;
  decode : Gb_obs.Json.t -> 'a option;  (** [None] on a shape mismatch. *)
}
(** How a cell's value is kept in the result store. *)

type 'a row = {
  label : string;  (** Row label; part of the cell coordinate. *)
  replicates : int;  (** Cells in the row (at least one), replicate [0] first. *)
  seed : int -> int;  (** Replicate index to the cell's RNG seed. *)
  compute : Gb_prng.Rng.t -> 'a;
      (** The cell's measurement, handed a fresh stream on its seed. *)
}

val seed : Profile.t -> string -> string -> int -> int
(** [seed profile tag label j] hashes ["MASTER/tag/label/j"], the seed
    most tables derive for replicate [j] of a row. *)

val run : Profile.t -> tag:string -> 'a codec -> 'a row list -> 'a list list
(** [run profile ~tag codec rows] computes every cell of [rows] and
    returns each row's values in replicate order, rows in input order.

    Each cell runs with the telemetry context graph
    ["tag/label/rep<j>"] and its seed, which label the records
    {!Runner.run_once_record} emits. When an ambient
    {!Gb_store.Store} is installed ([--store DIR]) each cell is looked
    up before it is computed and persisted after: a hit returns the
    stored value, timings included, and replays the records the cell
    emitted when it was computed, so a rerun against the same store
    renders the same tables and telemetry stream without recomputing
    anything. The key holds the profile fingerprint, [tag], the label,
    the replicate, the seed and whether a telemetry writer is
    installed (records computed without one carry no trajectories). *)

(** {1 Codecs} *)

val floats : float array codec
(** A fixed-layout vector of measurements. *)

val records : Gb_obs.Telemetry.record list codec
(** Telemetry records, for cells whose value is the records
    themselves. *)

val column_means : float array list -> float array
(** Column [i] of the result is the mean of column [i] over the
    replicates, summed in replicate order. *)
