(** Threshold accepting (Dueck & Scheuer, 1990) — the deterministic
    cousin of simulated annealing, published the year after the paper
    as a direct response to SA's tuning burden (§VII's closing
    complaint).

    Same outer loop as Figure 1, but step 10 becomes: accept the move
    iff its cost increase is below the current {e threshold} — no
    exponentials, no random acceptance draw. The threshold plays the
    temperature's role. It starts at the 0.6 quantile of 200 sampled
    uphill cost changes from the start state and is multiplied by
    0.95 after every level. A level is cold when fewer than 2 % of its
    moves are accepted.

    Included as an extension so the bench harness can ask how much of
    SA's behaviour on bisection is the Boltzmann rule and how much is
    just "allow bounded uphill moves for a while". *)

type schedule = {
  size_factor : int;  (** Moves per threshold level = [size_factor * n]. *)
  frozen_after : int;  (** Stop after this many consecutive cold levels. *)
  max_levels : int;
}

val default_schedule : schedule
(** size_factor [8], frozen_after [5], max_levels [1000]. *)

val validate : schedule -> unit
(** @raise Invalid_argument on out-of-range fields. *)

type stats = {
  levels : int;
  attempted : int;
  accepted : int;
  initial_threshold : float;
  final_threshold : float;
}

module Make (P : Sa.Problem) : sig
  type result = { final : P.state; best : P.state; best_cost : float; stats : stats }

  val run : ?schedule:schedule -> Gb_prng.Rng.t -> P.state -> result
  (** Anneal the state in place under threshold accepting; the RNG is
      used only for move proposal and calibration. *)
end

(** {1 Bisection front end} *)

val refine :
  ?schedule:schedule ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  int array ->
  int array * stats
(** Threshold-accepting bisection on {!Sa_bisect.Problem}: same search
    space, penalty and balance repair as {!Sa_bisect.refine}. A graph
    without vertices gets the empty assignment back before any draw.
    @raise Invalid_argument on invalid or unbalanced input. *)

val run :
  ?schedule:schedule ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * stats
(** From a fresh random balanced bisection. *)
