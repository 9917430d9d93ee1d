module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection

type config = { imbalance_factor : float; schedule : Schedule.t }

let default_config = { imbalance_factor = 0.05; schedule = Schedule.default }

type stats = {
  sa : Sa.stats;
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
    alpha : float;
    balance_slack : int; (* n mod 2: allowed count difference *)
  }

  type move = int (* the vertex to flip *)

  let size st = Csr.n_vertices st.graph

  let cost st =
    let d = float_of_int (st.c0 - st.c1) in
    float_of_int st.cut +. (st.alpha *. d *. d)

  let random_move rng st = Rng.int rng (Csr.n_vertices st.graph)

  let delta st v =
    let gain = Bisection.gain st.graph st.side v in
    let d = st.c0 - st.c1 in
    let d' = if st.side.(v) = 0 then d - 2 else d + 2 in
    float_of_int (-gain) +. (st.alpha *. float_of_int ((d' * d') - (d * d)))

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

  let make config g side =
    let c0, c1 = Bisection.side_counts side in
    {
      graph = g;
      side = Array.copy side;
      cut = Bisection.compute_cut g side;
      c0;
      c1;
      alpha = config.imbalance_factor;
      balance_slack = Csr.n_vertices g land 1;
    }

  let sides st = Array.copy st.side
end

module Engine = Sa.Make (Problem)

let make_state config g side = Problem.make config g side

let refine ?(config = default_config) ?trace rng g side0 =
  Bisection.validate_sides g side0;
  if config.imbalance_factor <= 0. then
    invalid_arg "Sa_bisect: imbalance_factor must be positive";
  let c0, c1 = Bisection.side_counts side0 in
  if abs (c0 - c1) > 1 then invalid_arg "Sa_bisect: input bisection is not balanced";
  let initial_cut = Bisection.compute_cut g side0 in
  let state = make_state config g side0 in
  let result =
    Gb_obs.Trace.with_span "sa.anneal"
      ~args:
        [
          ("vertices", Gb_obs.Json.Int (Csr.n_vertices g));
          ("initial_cut", Gb_obs.Json.Int initial_cut);
        ]
      (fun () -> Engine.run ~schedule:config.schedule ?trace rng state)
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

let run ?config ?trace rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine ?config ?trace rng g side0 in
  (Bisection.of_sides g side, stats)

