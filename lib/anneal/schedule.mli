(** Annealing schedules: the control parameters of Figure 1.

    The generic algorithm leaves five knobs open ("GET INITIAL
    TEMPERATURE", "NOT YET IN EQUILIBRIUM", "NOT YET FROZEN", "REDUCE
    TEMPERATURE", acceptance); this record pins them down the way the
    Johnson-Aragon-McGeoch-Schevon implementation the paper compares
    against does:

    - the initial temperature is either fixed or {e calibrated} so that
      a target fraction of uphill moves would be accepted at the start;
    - equilibrium at a temperature = a fixed number of attempted moves
      proportional to the instance size ([size_factor * n]);
    - cooling is geometric ([t *= cooling]);
    - frozen = the acceptance ratio stayed below {!min_acceptance}
      for [frozen_after] consecutive temperatures with no new best
      found (plus the {!min_temperature} floor and the
      [max_temperatures] cap as safety nets).

    The paper's §VII remarks about SA — that tuning "can be a big job"
    and that runs must save the best solution seen — are both encoded
    here and in {!Sa}. *)

type initial_temperature =
  | Fixed_temperature of float
  | Calibrate of float
      (** Sample uphill moves from the start state; choose T so this
          fraction of them would be accepted ([0 < fraction < 1]). *)

type t = {
  initial_temperature : initial_temperature;
  cooling : float;  (** Geometric factor in (0, 1). *)
  size_factor : int;  (** Attempted moves per temperature = [size_factor * n]. *)
  cutoff : float;
      (** JAMS-style early equilibrium exit: move to the next
          temperature once [cutoff * size_factor * n] moves have been
          {e accepted} at this one. [1.0] disables the cutoff (every
          temperature runs its full trial budget). In the hot phase
          most moves are accepted, so a cutoff around [0.25] saves a
          large constant factor with little quality impact — this is
          the knob Johnson et al. call "cutoff". *)
  frozen_after : int;  (** Consecutive cold temperatures before stopping. *)
  max_temperatures : int;  (** Hard cap (safety net). *)
}

val min_acceptance : float
(** [0.02]: a temperature is cold when its acceptance ratio is below
    this, whatever the schedule. *)

val min_temperature : float
(** [1e-4]: annealing stops once the temperature is at or below this
    floor (safety net), whatever the schedule. *)

val default : t
(** Johnson-et-al-flavoured defaults:
    [Calibrate 0.4], cooling [0.95], size_factor [8], cutoff [1.0],
    frozen_after [5], max_temperatures [1000]. *)

val quick : t
(** A faster, rougher schedule (cooling [0.9], size_factor [4]) for
    tests and the bench harness's reduced profile. *)

val validate : t -> unit
(** @raise Invalid_argument on out-of-range fields. *)
