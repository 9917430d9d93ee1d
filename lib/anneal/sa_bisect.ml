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

(* The weight of the squared imbalance in the cost, Johnson et al.'s. *)
let alpha = 0.05

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
    xadj : Csr.ia; (* the graph's slices, walked by [apply] *)
    adjncy : Csr.ia;
    adjwgt : Csr.ia;
    side : int array;
    gains : int array;
    mutable cut : int;
    mutable c0 : int;
    mutable c1 : int;
    balance_slack : int; (* n mod 2: allowed count difference *)
  }

  type move = int (* the vertex to flip *)

  let size st = Array.length st.side

  let[@inline] cost st =
    let d = float_of_int (st.c0 - st.c1) in
    float_of_int st.cut +. (alpha *. d *. d)

  let[@inline] random_move rng st = Rng.int rng (Array.length st.side)

  let[@inline] delta st v =
    let gain = st.gains.(v) in
    let d = st.c0 - st.c1 in
    let d' = if st.side.(v) = 0 then d - 2 else d + 2 in
    float_of_int (-gain) +. (alpha *. float_of_int ((d' * d') - (d * d)))

  (* Indices come from [xadj] or are vertex ids below n. *)
  let get (a : Csr.ia) k = Int32.to_int (Bigarray.Array1.unsafe_get a k)

  (* Flipping [v] to [dest] changes the gain of each neighbour [u] by
     -2w when [u] now shares its side and by +2w otherwise:
     (4 (side lxor dest) - 2) w, walked over [v]'s slice. *)
  let[@inline] apply st v =
    let gain = st.gains.(v) in
    let s = st.side.(v) in
    let dest = 1 - s in
    st.cut <- st.cut - gain;
    st.c0 <- st.c0 + (s - dest);
    st.c1 <- st.c1 + (dest - s);
    st.side.(v) <- dest;
    st.gains.(v) <- -gain;
    let side = st.side and gains = st.gains in
    for k = get st.xadj v to get st.xadj (v + 1) - 1 do
      let u = get st.adjncy k in
      gains.(u) <- gains.(u) + (((4 * (side.(u) lxor dest)) - 2) * get st.adjwgt k)
    done

  let[@inline] feasible st = abs (st.c0 - st.c1) <= st.balance_slack

  let snapshot st = { st with side = Array.copy st.side; gains = Array.copy st.gains }

  let make g side =
    let c0, c1 = Bisection.side_counts side in
    let side = Array.copy side in
    let xadj, adjncy, adjwgt = Csr.adjacency g in
    {
      xadj;
      adjncy;
      adjwgt;
      side;
      gains = Bisection.all_gains g side;
      cut = Bisection.compute_cut g side;
      c0;
      c1;
      balance_slack = Csr.n_vertices g land 1;
    }

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
let anneal schedule rng (st : Problem.state) =
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
    && !temperature > Schedule.min_temperature
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
    if acceptance < Schedule.min_acceptance && not !improved_best then incr cold_streak
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

(* A graph without vertices has one assignment, the empty one.
   Calibration and moves draw a vertex, so it comes back before any
   draw, with nothing counted. *)
let no_vertices =
  {
    sa =
      {
        Sa.temperatures = 0;
        attempted = 0;
        accepted = 0;
        uphill_accepted = 0;
        initial_temperature = 0.;
        final_temperature = 0.;
        frozen = true;
        plateaus = [];
      };
    best_was_snapshot = true;
    initial_cut = 0;
    final_cut = 0;
  }

let refine ?(schedule = Schedule.default) rng g side0 =
  Bisection.validate_sides g side0;
  let c0, c1 = Bisection.side_counts side0 in
  if abs (c0 - c1) > 1 then invalid_arg "Sa_bisect: input bisection is not balanced";
  if Csr.n_vertices g = 0 then ([||], no_vertices)
  else begin
    let st = Problem.make g side0 in
    let initial_cut = st.cut in
    let best_side, sa =
      Obs.Trace.with_span Obs.Span.sa_anneal
        ~args:
          [
            ("vertices", Obs.Json.Int (Csr.n_vertices g));
            ("initial_cut", Obs.Json.Int initial_cut);
          ]
        (fun () -> anneal schedule rng st)
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
  end

let run ?schedule rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine ?schedule rng g side0 in
  (Bisection.of_sides g side, stats)
