(* Test-only reference for Gbisect.Sa_bisect: the generic annealing
   engine Sa.Make, the bisection problem and Sa_bisect.refine as they
   stood before the cached-gain loop, copied verbatim. Every delta walks
   the vertex's neighbours, every accepted flip walks them again, and
   every new best copies the whole state. The differential tests in
   test_anneal.ml demand that Sa_bisect.refine returns exactly what
   [refine] returns. *)

module Rng = Gbisect.Rng
module Obs = Gbisect.Obs
module Csr = Gbisect.Graph
module Bisection = Gbisect.Bisection
module Schedule = Gbisect.Schedule

(* --- Sa.Make ----------------------------------------------------------------- *)

(* Observability instruments (no-ops unless Gb_obs is switched on). *)
let m_proposed = Obs.Metrics.counter "sa.moves_proposed"
let m_accepted_downhill = Obs.Metrics.counter "sa.accepted_downhill"
let m_accepted_uphill = Obs.Metrics.counter "sa.accepted_uphill"
let m_rejected_uphill = Obs.Metrics.counter "sa.rejected_uphill"
let m_plateaus = Obs.Metrics.counter "sa.plateaus"
let h_acceptance = Obs.Metrics.histogram "sa.plateau_acceptance_pct"

module type Problem = sig
  type state
  type move

  val size : state -> int
  val cost : state -> float
  val random_move : Rng.t -> state -> move
  val delta : state -> move -> float
  val apply : state -> move -> unit
  val feasible : state -> bool
  val snapshot : state -> state
end

type plateau = Gbisect.Sa.plateau = {
  temperature : float;
  p_attempted : int;
  p_accepted : int;
  p_accepted_uphill : int;
  p_accepted_downhill : int;
  p_rejected : int;
  acceptance : float;
  p_best_cost : float;
  improved_best : bool;
}

type sa_stats = Gbisect.Sa.stats = {
  temperatures : int;
  attempted : int;
  accepted : int;
  uphill_accepted : int;
  initial_temperature : float;
  final_temperature : float;
  frozen : bool;
  plateaus : plateau list;
}

module Make (P : Problem) = struct
  type result = { final : P.state; best : P.state; best_cost : float; stats : sa_stats }

  (* Sample uphill deltas from the start state (without keeping the
     moves) and choose T such that the mean uphill move is accepted
     with probability [fraction]: T = -mean_delta / ln fraction. *)
  let calibrate rng state fraction =
    let samples = 200 in
    let sum = ref 0. and count = ref 0 in
    for _ = 1 to samples do
      let mv = P.random_move rng state in
      let d = P.delta state mv in
      if d > 0. then begin
        sum := !sum +. d;
        incr count
      end
    done;
    if !count = 0 then 1.0
    else
      let mean = !sum /. float_of_int !count in
      -.mean /. log fraction

  let run ?(schedule = Schedule.default) rng state =
    Schedule.validate schedule;
    let t0 =
      match schedule.Schedule.initial_temperature with
      | Schedule.Fixed_temperature t -> t
      | Schedule.Calibrate fraction -> calibrate rng state fraction
    in
    let temperature = ref t0 in
    let best = ref (P.snapshot state) in
    let best_cost = ref (if P.feasible state then P.cost state else infinity) in
    let have_best = ref (P.feasible state) in
    let attempted = ref 0 and accepted = ref 0 and uphill = ref 0 in
    let cold_streak = ref 0 in
    let temperatures = ref 0 in
    let frozen = ref false in
    let plateaus = ref [] in
    let trials_per_temp = schedule.Schedule.size_factor * max 1 (P.size state) in
    let acceptance_budget =
      (* JAMS cutoff: leave a temperature early once this many moves
         have been accepted (trials_per_temp + 1 disables it). *)
      if schedule.Schedule.cutoff >= 1. then trials_per_temp + 1
      else
        max 1
          (int_of_float (schedule.Schedule.cutoff *. float_of_int trials_per_temp))
    in
    while
      (not !frozen)
      && !temperatures < schedule.Schedule.max_temperatures
      && !temperature > 1e-4
    do
      let span = Obs.Trace.start () in
      let accepted_here = ref 0 in
      let attempted_here = ref 0 in
      let uphill_here = ref 0 in
      let improved_best = ref false in
      while !attempted_here < trials_per_temp && !accepted_here < acceptance_budget do
        incr attempted_here;
        let mv = P.random_move rng state in
        let d = P.delta state mv in
        let accept = d <= 0. || Rng.float rng 1.0 < exp (-.d /. !temperature) in
        incr attempted;
        if accept then begin
          P.apply state mv;
          incr accepted;
          incr accepted_here;
          if d > 0. then begin
            incr uphill;
            incr uphill_here
          end;
          if P.feasible state then begin
            let c = P.cost state in
            if (not !have_best) || c < !best_cost then begin
              best := P.snapshot state;
              best_cost := c;
              have_best := true;
              improved_best := true
            end
          end
        end
      done;
      incr temperatures;
      let acceptance = float_of_int !accepted_here /. float_of_int !attempted_here in
      plateaus :=
        {
          temperature = !temperature;
          p_attempted = !attempted_here;
          p_accepted = !accepted_here;
          p_accepted_uphill = !uphill_here;
          p_accepted_downhill = !accepted_here - !uphill_here;
          p_rejected = !attempted_here - !accepted_here;
          acceptance;
          p_best_cost = !best_cost;
          improved_best = !improved_best;
        }
        :: !plateaus;
      Obs.Metrics.incr m_plateaus;
      Obs.Metrics.add m_proposed !attempted_here;
      Obs.Metrics.add m_accepted_uphill !uphill_here;
      Obs.Metrics.add m_accepted_downhill (!accepted_here - !uphill_here);
      Obs.Metrics.add m_rejected_uphill (!attempted_here - !accepted_here);
      Obs.Metrics.observe h_acceptance (100. *. acceptance);
      Obs.Telemetry.sample Obs.Span.sa_plateau !best_cost;
      Obs.Trace.finish span Obs.Span.sa_plateau
        ~args:
          [
            ("plateau", Obs.Json.Int !temperatures);
            ("temperature", Obs.Json.Float !temperature);
            ("attempted", Obs.Json.Int !attempted_here);
            ("accepted", Obs.Json.Int !accepted_here);
            ("acceptance", Obs.Json.Float acceptance);
            ("best_cost", Obs.Json.Float !best_cost);
          ];
      if acceptance < 0.02 && not !improved_best then
        incr cold_streak
      else cold_streak := 0;
      if !cold_streak >= schedule.Schedule.frozen_after then frozen := true
      else temperature := !temperature *. schedule.Schedule.cooling
    done;
    let best_state = if !have_best then !best else P.snapshot state in
    let best_cost = if !have_best then !best_cost else P.cost state in
    {
      final = state;
      best = best_state;
      best_cost;
      stats =
        {
          temperatures = !temperatures;
          attempted = !attempted;
          accepted = !accepted;
          uphill_accepted = !uphill;
          initial_temperature = t0;
          final_temperature = !temperature;
          frozen = !frozen;
          plateaus = List.rev !plateaus;
        };
    }
end

(* --- Sa_bisect --------------------------------------------------------------- *)

type config = { schedule : Schedule.t }

let default_config = { schedule = Schedule.default }

(* The weight of the squared imbalance in the cost, Johnson et al.'s. *)
let alpha = 0.05

type stats = Gbisect.Sa_bisect.stats = {
  sa : sa_stats;
  best_was_snapshot : bool;
  initial_cut : int;
  final_cut : int;
}

module Problem = struct
  type state = {
    graph : Csr.t;
    side : int array;
    mutable cut : int;
    mutable c0 : int;
    mutable c1 : int;
    balance_slack : int; (* n mod 2: allowed count difference *)
  }

  type move = int (* the vertex to flip *)

  let size st = Csr.n_vertices st.graph

  let cost st =
    let d = float_of_int (st.c0 - st.c1) in
    float_of_int st.cut +. (alpha *. d *. d)

  let random_move rng st = Rng.int rng (Csr.n_vertices st.graph)

  let delta st v =
    let gain = Bisection.gain st.graph st.side v in
    let d = st.c0 - st.c1 in
    let d' = if st.side.(v) = 0 then d - 2 else d + 2 in
    float_of_int (-gain) +. (alpha *. float_of_int ((d' * d') - (d * d)))

  let apply st v =
    let gain = Bisection.gain st.graph st.side v in
    st.cut <- st.cut - gain;
    if st.side.(v) = 0 then begin
      st.c0 <- st.c0 - 1;
      st.c1 <- st.c1 + 1
    end
    else begin
      st.c1 <- st.c1 - 1;
      st.c0 <- st.c0 + 1
    end;
    st.side.(v) <- 1 - st.side.(v)

  let feasible st = abs (st.c0 - st.c1) <= st.balance_slack
  let snapshot st = { st with side = Array.copy st.side }

  let make g side =
    let c0, c1 = Bisection.side_counts side in
    {
      graph = g;
      side = Array.copy side;
      cut = Bisection.compute_cut g side;
      c0;
      c1;
      balance_slack = Csr.n_vertices g land 1;
    }

  let sides st = Array.copy st.side
end

module Engine = Make (Problem)

let make_state g side = Problem.make g side

let refine ?(config = default_config) rng g side0 =
  Bisection.validate_sides g side0;
  let c0, c1 = Bisection.side_counts side0 in
  if abs (c0 - c1) > 1 then invalid_arg "Sa_bisect: input bisection is not balanced";
  let initial_cut = Bisection.compute_cut g side0 in
  let state = make_state g side0 in
  let result =
    Gbisect.Obs.Trace.with_span Gbisect.Obs.Span.sa_anneal
      ~args:
        [
          ("vertices", Gbisect.Obs.Json.Int (Csr.n_vertices g));
          ("initial_cut", Gbisect.Obs.Json.Int initial_cut);
        ]
      (fun () -> Engine.run ~schedule:config.schedule rng state)
  in
  (* Candidate 1: the tracked best balanced snapshot. *)
  let snap = result.Engine.best in
  let snap_side = snap.Problem.side in
  let snap_balanced = abs (snap.Problem.c0 - snap.Problem.c1) <= snap.Problem.balance_slack in
  (* Candidate 2: the final state, greedily rebalanced. *)
  let final_side = Bisection.rebalance g result.Engine.final.Problem.side in
  let final_cut_rb = Bisection.compute_cut g final_side in
  let side, best_was_snapshot =
    if snap_balanced && Bisection.compute_cut g snap_side <= final_cut_rb then
      (Array.copy snap_side, true)
    else (final_side, false)
  in
  let final_cut = Bisection.compute_cut g side in
  (side, { sa = result.Engine.stats; best_was_snapshot; initial_cut; final_cut })
