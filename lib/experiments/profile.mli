(** Experiment profiles: how big, how many, how patient.

    The paper ran 556 graphs of 500-5000 vertices on a VAX 11/780, with
    every algorithm started twice per graph. Re-running all of that at
    full scale takes minutes even on a modern machine (SA dominates), so
    the harness exposes three profiles:

    - {!smoke} — tiny instances, 1 replicate; CI-sized.
    - {!quick} — quarter-scale instances (5000 -> 1250), the default of
      [gbisect table]; completes in a few minutes and preserves every
      qualitative shape.
    - {!paper} — the paper's instance sizes and replicate counts
      ([--profile paper]).

    All randomness derives from [master_seed], so any table can be
    regenerated exactly. *)

type t = {
  name : string;
  scale : int -> int;
      (** Applied to the paper's vertex counts (e.g. 5000, 2000). The
          result is rounded to even. *)
  starts : int;  (** Random starts per algorithm per graph (paper: 2). *)
  replicates : int;
      (** Random graphs per parameter setting (paper: 3 for Gbreg,
          7 for Gnp, 1 elsewhere); families multiply this by their own
          factor. *)
  sa_schedule : Gb_anneal.Schedule.t;
  master_seed : int;
}

val smoke : t
val quick : t
val paper : t

val scaled : t -> int -> int
(** [scaled p n] = even-rounded [p.scale n], at least 16. *)

val fingerprint : t -> string
(** Canonical rendering of every profile field that can change an
    experiment cell's value (name, master seed, starts, probed scale,
    the full SA schedule), plus the annealing loop's fixed freezing
    threshold and temperature floor and the KL pass cap every table
    uses. Result-store keys embed it so cached cells are never reused
    across incompatible configurations. *)

val by_name : string -> t option
(** ["smoke" | "quick" | "paper"/"full"]. *)
