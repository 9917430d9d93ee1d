(** Shared driver for the appendix-style tables.

    Every appendix table has the same column discipline; one row per
    parameter setting:

    {v
    <label>  b  bsa  bcsa  csa-impr%  t(sa)  t(csa)  sa-speedup%
                bkl  bckl  ckl-impr%  t(kl)  t(ckl)  kl-speedup%
    v}

    flattened into one line per row. A row owns a generator; the driver
    draws [replicates] independent graphs from it, applies the paper's
    best-of-[starts] protocol to the four algorithms on each, and
    averages (the paper averages 3 seeds per [Gbreg] setting and 7 per
    [Gnp] row). *)

type row = {
  label : string;  (** First column (e.g. ["b=8"] or ["45x45"]). *)
  expected : string;  (** Expected/planted bisection width; [""] if n/a. *)
  replicate_factor : int;  (** Multiplies [profile.replicates]. *)
  make : Gb_prng.Rng.t -> Gb_graph.Csr.t;  (** Fresh instance per call. *)
}

type row_data = {
  row : row;
  quad : Runner.quad;  (** Averaged over the row's replicates. *)
}

val collect : Profile.t -> seed_tag:string -> row list -> row_data list
(** Run the measurements only (no formatting): one {!Cell} per (row,
    replicate), tagged [seed_tag], with replicate [j] of a row seeded
    from [(master_seed, seed_tag, label, j)], so the data is the same
    in any execution order, at any [--jobs], and replayed from the
    result store when one is installed. *)

val run : Profile.t -> title:string -> ?notes:string list -> seed_tag:string -> row list -> string
(** [collect] followed by the table formatter. *)

val header : string list
(** The column header used by the table formatter (exposed for the
    tests). *)
