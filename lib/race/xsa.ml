module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Initial = Gb_partition.Initial
module Problem = Gb_anneal.Sa_bisect.Problem
module Pool = Gb_par.Pool
module Obs = Gb_obs

(* Observability instruments (no-ops unless Gb_obs is switched on).
   Metrics handles are atomic by construction, so the chain workers may
   bump them from any domain. *)
let m_proposed = Obs.Metrics.counter "xsa.moves_proposed"
let m_accepted = Obs.Metrics.counter "xsa.moves_accepted"
let m_swaps_attempted = Obs.Metrics.counter "xsa.swaps_attempted"
let m_swaps_accepted = Obs.Metrics.counter "xsa.swaps_accepted"

type config = {
  chains : int;
  rounds : int;
  sweeps_per_round : int;
  max_temperature : float;
  min_temperature : float;
  imbalance_factor : float;
}

let default_config =
  {
    chains = 4;
    rounds = 12;
    sweeps_per_round = 2;
    max_temperature = 4.0;
    min_temperature = 0.25;
    imbalance_factor = 0.05;
  }

let validate c =
  let bad msg = invalid_arg ("Xsa: " ^ msg) in
  if c.chains < 1 then bad "chains must be >= 1";
  if c.rounds < 1 then bad "rounds must be >= 1";
  if c.sweeps_per_round < 1 then bad "sweeps_per_round must be >= 1";
  if c.min_temperature <= 0. then bad "min_temperature must be positive";
  if c.max_temperature < c.min_temperature then
    bad "max_temperature must be >= min_temperature";
  if c.imbalance_factor <= 0. then bad "imbalance_factor must be positive"

(* Slot 0 is the hottest chain; the ladder descends geometrically to
   min_temperature at slot K-1. *)
let temperature_ladder c =
  validate c;
  let k = c.chains in
  if k = 1 then [| c.max_temperature |]
  else
    Array.init k (fun i ->
        c.max_temperature
        *. ((c.min_temperature /. c.max_temperature)
           ** (float_of_int i /. float_of_int (k - 1))))

type stats = {
  chains : int;
  rounds : int;
  temperatures : float array;
  attempted : int;
  accepted : int;
  swaps_attempted : int;
  swaps_accepted : int;
  best_chain : int;
  best_was_snapshot : bool;
  trajectories : int array array;
}

(* One temperature slot. A swap exchanges the [state] fields of two
   adjacent slots; the RNG, the trajectory and the counters stay with
   the slot, so slot k's entire move sequence is a function of the seed
   [substream_seed ~base k] and the (seed-derived) swap schedule alone
   — never of domain scheduling. *)
type slot = {
  rng : Rng.t;
  temperature : float;
  mutable state : Problem.state;
  mutable best_cost : float;
  mutable best_sides : int array;
  mutable attempted : int;
  mutable accepted : int;
  mutable trajectory : int list; (* accepted moves, reversed *)
}

(* [sweeps * n] Metropolis proposals at the slot's fixed temperature,
   drawing only from the slot's own stream and touching only the slot's
   own state — safe and deterministic under Pool fan-out. *)
let step_slot cfg n record slot =
  let steps = cfg.sweeps_per_round * max 1 n in
  let temp = slot.temperature in
  for _ = 1 to steps do
    let v = Problem.random_move slot.rng slot.state in
    let d = Problem.delta slot.state v in
    slot.attempted <- slot.attempted + 1;
    let accept = d <= 0. || Rng.float slot.rng 1.0 < exp (-.d /. temp) in
    if accept then begin
      Problem.apply slot.state v;
      slot.accepted <- slot.accepted + 1;
      if record then slot.trajectory <- v :: slot.trajectory;
      if Problem.feasible slot.state then begin
        let c = Problem.cost slot.state in
        if c < slot.best_cost then begin
          slot.best_cost <- c;
          slot.best_sides <- Problem.sides slot.state
        end
      end
    end
  done

let run ?(config = default_config) ?(record = false) rng g =
  validate config;
  let n = Csr.n_vertices g in
  if n = 0 then
    ( Bisection.of_sides g [||],
      {
        chains = config.chains;
        rounds = config.rounds;
        temperatures = temperature_ladder config;
        attempted = 0;
        accepted = 0;
        swaps_attempted = 0;
        swaps_accepted = 0;
        best_chain = 0;
        best_was_snapshot = false;
        trajectories = [||];
      } )
  else begin
    let temps = temperature_ladder config in
    let k = config.chains in
    (* Two derived bases, drawn in a fixed order: one family of
       substreams for the chains, one for the swap rounds. Everything
       downstream is a pure function of these seeds. *)
    let chain_base = Rng.derive_seed rng in
    let swap_base = Rng.derive_seed rng in
    let problem_config =
      Gb_anneal.Sa_bisect.
        { imbalance_factor = config.imbalance_factor; schedule = Gb_anneal.Schedule.default }
    in
    let slots =
      Array.init k (fun i ->
          let srng = Rng.substream ~base:chain_base i in
          let side0 = Initial.random srng g in
          let state = Problem.make problem_config g side0 in
          {
            rng = srng;
            temperature = temps.(i);
            state;
            best_cost = Problem.cost state;
            best_sides = Problem.sides state;
            attempted = 0;
            accepted = 0;
            trajectory = [];
          })
    in
    let swaps_attempted = ref 0 and swaps_accepted = ref 0 in
    let pool = Pool.current () in
    for round = 0 to config.rounds - 1 do
      Obs.Trace.with_span "xsa.round"
        ~args:[ ("round", Obs.Json.Int round); ("chains", Obs.Json.Int k) ]
        (fun () ->
          (* Chains are independent within a round: fan out on the
             ambient pool. Pool.init preserves index order, and each
             task touches only its own slot. *)
          ignore (Pool.init pool k (fun i -> step_slot config n record slots.(i)));
          (* Deterministic swap phase: adjacent pairs, alternating
             parity by round, Metropolis decisions from the round's own
             substream. One uniform draw per considered pair, whatever
             the outcome, keeps the schedule's shape fixed. *)
          let srng = Rng.substream ~base:swap_base round in
          let i = ref (round land 1) in
          while !i + 1 < k do
            let a = slots.(!i) and b = slots.(!i + 1) in
            let ea = Problem.cost a.state and eb = Problem.cost b.state in
            let beta_a = 1. /. a.temperature and beta_b = 1. /. b.temperature in
            let u = Rng.float srng 1.0 in
            incr swaps_attempted;
            if u < exp ((beta_a -. beta_b) *. (ea -. eb)) then begin
              let t = a.state in
              a.state <- b.state;
              b.state <- t;
              incr swaps_accepted
            end;
            i := !i + 2
          done);
      if Obs.Telemetry.collecting () then begin
        let best = ref infinity in
        Array.iter (fun s -> if s.best_cost < !best then best := s.best_cost) slots;
        Obs.Telemetry.sample "xsa.round_best" !best
      end
    done;
    (* Per slot, the better of the tracked balanced snapshot and the
       greedily rebalanced final state (snapshot wins ties), then the
       best slot overall — ties to the lowest slot index. Mirrors
       Sa_bisect.refine so xsa composes with the same invariants. *)
    let best_cut = ref max_int
    and best_sides = ref [||]
    and best_chain = ref 0
    and best_was_snapshot = ref false in
    Array.iteri
      (fun idx slot ->
        let final_sides = Bisection.rebalance g (Problem.sides slot.state) in
        let final_cut = Bisection.compute_cut g final_sides in
        let snap_cut =
          if Bisection.is_count_balanced slot.best_sides then
            Bisection.compute_cut g slot.best_sides
          else max_int
        in
        let cut, sides, was_snapshot =
          if snap_cut <= final_cut then (snap_cut, slot.best_sides, true)
          else (final_cut, final_sides, false)
        in
        if cut < !best_cut then begin
          best_cut := cut;
          best_sides := sides;
          best_chain := idx;
          best_was_snapshot := was_snapshot
        end)
      slots;
    let attempted = Array.fold_left (fun acc s -> acc + s.attempted) 0 slots in
    let accepted = Array.fold_left (fun acc s -> acc + s.accepted) 0 slots in
    Obs.Metrics.add m_proposed attempted;
    Obs.Metrics.add m_accepted accepted;
    Obs.Metrics.add m_swaps_attempted !swaps_attempted;
    Obs.Metrics.add m_swaps_accepted !swaps_accepted;
    ( Bisection.of_sides g !best_sides,
      {
        chains = k;
        rounds = config.rounds;
        temperatures = temps;
        attempted;
        accepted;
        swaps_attempted = !swaps_attempted;
        swaps_accepted = !swaps_accepted;
        best_chain = !best_chain;
        best_was_snapshot = !best_was_snapshot;
        trajectories =
          (if record then
             Array.map (fun s -> Array.of_list (List.rev s.trajectory)) slots
           else [||]);
      } )
  end
