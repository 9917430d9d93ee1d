(** The vocabulary shared by the annealing-style searches: the problem
    signature that {!Threshold.Make} runs over, and the per-temperature
    statistics that {!Sa_bisect} reports. The annealing loop itself is
    {!Sa_bisect.refine}, specialised to bisection. *)

module type Problem = sig
  type state

  type move

  val size : state -> int
  (** Instance size; equilibrium is [size_factor * size] attempts. *)

  val cost : state -> float
  (** Current cost of the (mutable) state. *)

  val random_move : Gb_prng.Rng.t -> state -> move

  val delta : state -> move -> float
  (** Cost change if [move] were applied; must not mutate. *)

  val apply : state -> move -> unit

  val feasible : state -> bool
  (** Whether the current state may be recorded as "best" (e.g. the
      bisection is balanced). *)

  val snapshot : state -> state
  (** Independent copy used to store the best state. *)
end

(** Per-temperature-step record — the acceptance ratio here is the
    freezing criterion the paper's schedule depends on, and the
    [p_best_cost] series is Figure 1's trajectory. *)
type plateau = {
  temperature : float;
  p_attempted : int;  (** Moves proposed at this temperature. *)
  p_accepted : int;
  p_accepted_uphill : int;
  p_accepted_downhill : int;  (** Downhill/flat moves are always accepted. *)
  p_rejected : int;  (** Rejected moves (all rejections are uphill). *)
  acceptance : float;  (** [p_accepted / p_attempted]. *)
  p_best_cost : float;  (** Best feasible cost seen so far. *)
  improved_best : bool;  (** Whether this plateau improved the best. *)
}

type stats = {
  temperatures : int;
  attempted : int;
  accepted : int;
  uphill_accepted : int;
  initial_temperature : float;
  final_temperature : float;
  frozen : bool;  (** [true]: acceptance froze; [false]: a safety cap hit. *)
  plateaus : plateau list;  (** One record per temperature step, in order. *)
}
