module Rng = Gb_prng.Rng

type schedule = { size_factor : int; frozen_after : int; max_levels : int }

let default_schedule = { size_factor = 8; frozen_after = 5; max_levels = 1000 }

(* The initial threshold is this quantile of sampled uphill deltas;
   each level multiplies the threshold by [decay]; a level is cold when
   its acceptance ratio is below [min_acceptance]. *)
let quantile = 0.6
let decay = 0.95
let min_acceptance = 0.02

let validate s =
  let bad msg = invalid_arg ("Threshold: " ^ msg) in
  if s.size_factor < 1 then bad "size_factor must be >= 1";
  if s.frozen_after < 1 then bad "frozen_after must be >= 1";
  if s.max_levels < 1 then bad "max_levels must be >= 1"

type stats = {
  levels : int;
  attempted : int;
  accepted : int;
  initial_threshold : float;
  final_threshold : float;
}

module Make (P : Sa.Problem) = struct
  type result = { final : P.state; best : P.state; best_cost : float; stats : stats }

  let calibrate rng state =
    let samples = 200 in
    let deltas = ref [] in
    for _ = 1 to samples do
      let mv = P.random_move rng state in
      let d = P.delta state mv in
      if d > 0. then deltas := d :: !deltas
    done;
    match List.sort Float.compare !deltas with
    | [] -> 1.0
    | sorted ->
        let k =
          min (List.length sorted - 1)
            (int_of_float (quantile *. float_of_int (List.length sorted)))
        in
        List.nth sorted k

  let run ?(schedule = default_schedule) rng state =
    validate schedule;
    let t0 = calibrate rng state in
    let threshold = ref t0 in
    let best = ref (P.snapshot state) in
    let best_cost = ref (if P.feasible state then P.cost state else infinity) in
    let have_best = ref (P.feasible state) in
    let attempted = ref 0 and accepted = ref 0 in
    let cold_streak = ref 0 and levels = ref 0 in
    let trials = schedule.size_factor * max 1 (P.size state) in
    let frozen = ref false in
    while (not !frozen) && !levels < schedule.max_levels do
      let accepted_here = ref 0 in
      let improved_best = ref false in
      for _ = 1 to trials do
        let mv = P.random_move rng state in
        let d = P.delta state mv in
        incr attempted;
        (* Threshold accepting: deterministic rule, no Boltzmann draw. *)
        if d < !threshold then begin
          P.apply state mv;
          incr accepted;
          incr accepted_here;
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
      incr levels;
      let acceptance = float_of_int !accepted_here /. float_of_int trials in
      if acceptance < min_acceptance && not !improved_best then incr cold_streak
      else cold_streak := 0;
      if !cold_streak >= schedule.frozen_after then frozen := true
      else threshold := !threshold *. decay
    done;
    let best_state = if !have_best then !best else P.snapshot state in
    let best_cost = if !have_best then !best_cost else P.cost state in
    {
      final = state;
      best = best_state;
      best_cost;
      stats =
        {
          levels = !levels;
          attempted = !attempted;
          accepted = !accepted;
          initial_threshold = t0;
          final_threshold = !threshold;
        };
    }
end

module Bisect_engine = Make (Sa_bisect.Problem)
module Bisection = Gb_partition.Bisection

let refine ?schedule rng g side0 =
  Bisection.validate_sides g side0;
  let c0, c1 = Bisection.side_counts side0 in
  if abs (c0 - c1) > 1 then invalid_arg "Threshold: input bisection is not balanced";
  (* As in Sa_bisect.refine: without vertices there is nothing to draw. *)
  if Gb_graph.Csr.n_vertices g = 0 then
    ( [||],
      { levels = 0; attempted = 0; accepted = 0; initial_threshold = 0.; final_threshold = 0. }
    )
  else begin
    let state = Sa_bisect.Problem.make g side0 in
    let result = Bisect_engine.run ?schedule rng state in
    let best_side = Sa_bisect.Problem.sides result.Bisect_engine.best in
    let final_side =
      Bisection.rebalance g (Sa_bisect.Problem.sides result.Bisect_engine.final)
    in
    let best_side = Bisection.rebalance g best_side in
    let side =
      if Bisection.compute_cut g best_side <= Bisection.compute_cut g final_side then best_side
      else final_side
    in
    (side, result.Bisect_engine.stats)
  end

let run ?schedule rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine ?schedule rng g side0 in
  (Bisection.of_sides g side, stats)
