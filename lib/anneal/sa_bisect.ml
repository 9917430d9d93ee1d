module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Obs = Gb_obs

(* Observability instruments (no-ops unless Gb_obs is switched on). *)
let m_proposed = Obs.Metrics.counter "sa.moves_proposed"
let m_accepted_downhill = Obs.Metrics.counter "sa.accepted_downhill"
let m_accepted_uphill = Obs.Metrics.counter "sa.accepted_uphill"
let m_rejected_uphill = Obs.Metrics.counter "sa.rejected_uphill"
let m_plateaus = Obs.Metrics.counter "sa.plateaus"
let h_acceptance = Obs.Metrics.histogram "sa.plateau_acceptance_pct"

type config = { imbalance_factor : float; schedule : Schedule.t }

let default_config = { imbalance_factor = 0.05; schedule = Schedule.default }

type stats = {
  sa : Sa.stats;
  best_was_snapshot : bool;
  initial_cut : int;
  final_cut : int;
}

module Problem = struct
  (* [gains.(v)] is the cut decrease if [v] flipped. [apply] keeps it
     exact for every vertex, so [delta] never walks a neighbour list.
     The functions the annealing loop calls are [@inline]: the default
     profile compiles libraries -opaque, and only an inlined [delta] or
     [cost] hands the loop an unboxed float. *)
  type state = {
    graph : Csr.t;
    side : int array;
    gains : int array;
    mutable cut : int;
    mutable c0 : int;
    mutable c1 : int;
    alpha : float;
    balance_slack : int; (* n mod 2: allowed count difference *)
    mutable dest : int; (* the side the vertex being flipped goes to *)
    update : int -> int -> unit; (* neighbour gain update in [apply] *)
  }

  type move = int (* the vertex to flip *)

  let size st = Csr.n_vertices st.graph

  let[@inline] cost st =
    let d = float_of_int (st.c0 - st.c1) in
    float_of_int st.cut +. (st.alpha *. d *. d)

  let[@inline] random_move rng st = Rng.int rng (Array.length st.side)

  let[@inline] delta st v =
    let gain = st.gains.(v) in
    let d = st.c0 - st.c1 in
    let d' = if st.side.(v) = 0 then d - 2 else d + 2 in
    float_of_int (-gain) +. (st.alpha *. float_of_int ((d' * d') - (d * d)))

  (* Flipping a vertex to [dest] changes the gain of each neighbour [u]
     by -2w when [u] now shares its side and by +2w otherwise. *)
  let update st u w =
    st.gains.(u) <- (st.gains.(u) + if st.side.(u) = st.dest then -2 * w else 2 * w)

  let[@inline] apply st v =
    let gain = st.gains.(v) in
    let s = st.side.(v) in
    st.cut <- st.cut - gain;
    if s = 0 then begin
      st.c0 <- st.c0 - 1;
      st.c1 <- st.c1 + 1
    end
    else begin
      st.c1 <- st.c1 - 1;
      st.c0 <- st.c0 + 1
    end;
    st.side.(v) <- 1 - s;
    st.gains.(v) <- -gain;
    st.dest <- 1 - s;
    Csr.iter_neighbors st.graph v st.update

  let[@inline] feasible st = abs (st.c0 - st.c1) <= st.balance_slack

  let snapshot st =
    let side = Array.copy st.side and gains = Array.copy st.gains in
    let rec st' = { st with side; gains; update = (fun u w -> update st' u w) } in
    st'

  let make config g side =
    let c0, c1 = Bisection.side_counts side in
    let side = Array.copy side in
    let rec st =
      {
        graph = g;
        side;
        gains = Bisection.all_gains g side;
        cut = Bisection.compute_cut g side;
        c0;
        c1;
        alpha = config.imbalance_factor;
        balance_slack = Csr.n_vertices g land 1;
        dest = 0;
        update = (fun u w -> update st u w);
      }
    in
    st

  let sides st = Array.copy st.side
end

(* Sample uphill deltas from the start state (without keeping the
   moves) and choose T such that the mean uphill move is accepted with
   probability [fraction]: T = -mean_delta / ln fraction. *)
let calibrate rng st fraction =
  let samples = 200 in
  let sum = ref 0. and count = ref 0 in
  for _ = 1 to samples do
    let d = Problem.delta st (Problem.random_move rng st) in
    if d > 0. then begin
      sum := !sum +. d;
      incr count
    end
  done;
  if !count = 0 then 1.0
  else
    let mean = !sum /. float_of_int !count in
    -.mean /. log fraction

(* Figure 1 on [st], which must start balanced. Returns the best
   balanced assignment seen, in an array of its own, and the stats.
   The start is the first best. Flips accepted since the last best go
   into [log]; a new best writes their current sides into [best_side],
   or copies the whole side array once more than n have piled up. *)
let anneal schedule trace rng (st : Problem.state) =
  Schedule.validate schedule;
  let t0 =
    match schedule.Schedule.initial_temperature with
    | Schedule.Fixed_temperature t -> t
    | Schedule.Calibrate fraction -> calibrate rng st fraction
  in
  let n = Array.length st.side in
  let best_side = Array.copy st.side in
  let log = Array.make n 0 in
  let logged = ref 0 in
  let temperature = ref t0 in
  let best_cost = ref (Problem.cost st) in
  let attempted = ref 0 and accepted = ref 0 and uphill = ref 0 in
  let cold_streak = ref 0 in
  let temperatures = ref 0 in
  let frozen = ref false in
  let plateaus = ref [] in
  let trials_per_temp = schedule.Schedule.size_factor * max 1 n in
  let acceptance_budget =
    (* JAMS cutoff: leave a temperature early once this many moves
       have been accepted (trials_per_temp + 1 disables it). *)
    if schedule.Schedule.cutoff >= 1. then trials_per_temp + 1
    else max 1 (int_of_float (schedule.Schedule.cutoff *. float_of_int trials_per_temp))
  in
  while
    (not !frozen)
    && !temperatures < schedule.Schedule.max_temperatures
    && !temperature > schedule.Schedule.min_temperature
  do
    let span = Obs.Trace.start () in
    let accepted_here = ref 0 in
    let attempted_here = ref 0 in
    let uphill_here = ref 0 in
    let improved_best = ref false in
    while !attempted_here < trials_per_temp && !accepted_here < acceptance_budget do
      incr attempted_here;
      let v = Problem.random_move rng st in
      let d = Problem.delta st v in
      let accept = d <= 0. || Rng.float rng 1.0 < exp (-.d /. !temperature) in
      incr attempted;
      if accept then begin
        Problem.apply st v;
        incr accepted;
        incr accepted_here;
        if d > 0. then begin
          incr uphill;
          incr uphill_here
        end;
        if !logged < n then log.(!logged) <- v;
        incr logged;
        if Problem.feasible st then begin
          let c = Problem.cost st in
          if c < !best_cost then begin
            if !logged <= n then
              for i = 0 to !logged - 1 do
                let u = log.(i) in
                best_side.(u) <- st.side.(u)
              done
            else Array.blit st.side 0 best_side 0 n;
            logged := 0;
            best_cost := c;
            improved_best := true
          end
        end
      end
    done;
    incr temperatures;
    let acceptance = float_of_int !accepted_here /. float_of_int !attempted_here in
    plateaus :=
      {
        Sa.temperature = !temperature;
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
    Obs.Telemetry.sample "sa.plateau" !best_cost;
    Obs.Trace.finish span "sa.plateau"
      ~args:
        [
          ("plateau", Obs.Json.Int !temperatures);
          ("temperature", Obs.Json.Float !temperature);
          ("attempted", Obs.Json.Int !attempted_here);
          ("accepted", Obs.Json.Int !accepted_here);
          ("acceptance", Obs.Json.Float acceptance);
          ("best_cost", Obs.Json.Float !best_cost);
        ];
    (match trace with
    | Some f -> f ~temperature:!temperature ~acceptance ~best_cost:!best_cost
    | None -> ());
    if acceptance < schedule.Schedule.min_acceptance && not !improved_best then incr cold_streak
    else cold_streak := 0;
    if !cold_streak >= schedule.Schedule.frozen_after then frozen := true
    else temperature := !temperature *. schedule.Schedule.cooling
  done;
  ( best_side,
    {
      Sa.temperatures = !temperatures;
      attempted = !attempted;
      accepted = !accepted;
      uphill_accepted = !uphill;
      initial_temperature = t0;
      final_temperature = !temperature;
      frozen = !frozen;
      plateaus = List.rev !plateaus;
    } )

let refine ?(config = default_config) ?trace rng g side0 =
  Bisection.validate_sides g side0;
  if config.imbalance_factor <= 0. then
    invalid_arg "Sa_bisect: imbalance_factor must be positive";
  let c0, c1 = Bisection.side_counts side0 in
  if abs (c0 - c1) > 1 then invalid_arg "Sa_bisect: input bisection is not balanced";
  let st = Problem.make config g side0 in
  let initial_cut = st.cut in
  let best_side, sa =
    Obs.Trace.with_span "sa.anneal"
      ~args:
        [
          ("vertices", Obs.Json.Int (Csr.n_vertices g));
          ("initial_cut", Obs.Json.Int initial_cut);
        ]
      (fun () -> anneal config.schedule trace rng st)
  in
  (* The better of the best balanced state seen and the final state,
     greedily rebalanced; the best state wins ties. *)
  let best_cut = Bisection.compute_cut g best_side in
  Bisection.rebalance_in_place g st.side;
  let rebalanced_cut = Bisection.compute_cut g st.side in
  let side, best_was_snapshot, final_cut =
    if best_cut <= rebalanced_cut then (best_side, true, best_cut)
    else (st.side, false, rebalanced_cut)
  in
  (side, { sa; best_was_snapshot; initial_cut; final_cut })

let run ?config ?trace rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine ?config ?trace rng g side0 in
  (Bisection.of_sides g side, stats)
