(** The per-temperature statistics that {!Sa_bisect} reports. The
    annealing loop itself is {!Sa_bisect.refine}, specialised to
    bisection, and its inner loop {!Sa_bisect.plateau} is the one loop
    that makes Metropolis moves. *)

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
