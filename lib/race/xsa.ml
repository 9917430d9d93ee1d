module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Initial = Gb_partition.Initial
module Sa_bisect = Gb_anneal.Sa_bisect
module Pool = Gb_par.Pool
module Obs = Gb_obs

(* Observability instruments (no-ops unless Gb_obs is switched on).
   Metrics handles are atomic by construction, so the chain workers may
   bump them from any domain. *)
let m_proposed = Obs.Metrics.counter "xsa.moves_proposed"
let m_accepted = Obs.Metrics.counter "xsa.moves_accepted"
let m_swaps_attempted = Obs.Metrics.counter "xsa.swaps_attempted"
let m_swaps_accepted = Obs.Metrics.counter "xsa.swaps_accepted"

type config = { chains : int; rounds : int; sweeps_per_round : int }

let default_config = { chains = 4; rounds = 12; sweeps_per_round = 2 }

let validate c =
  let bad msg = invalid_arg ("Xsa: " ^ msg) in
  if c.chains < 1 then bad "chains must be >= 1";
  if c.rounds < 1 then bad "rounds must be >= 1";
  if c.sweeps_per_round < 1 then bad "sweeps_per_round must be >= 1"

let max_temperature = 4.0
let min_temperature = 0.25

(* Slot 0 is the hottest chain; the ladder descends geometrically to
   min_temperature at slot K-1. *)
let temperature_ladder c =
  validate c;
  let k = c.chains in
  if k = 1 then [| max_temperature |]
  else
    Array.init k (fun i ->
        max_temperature
        *. ((min_temperature /. max_temperature) ** (float_of_int i /. float_of_int (k - 1))))

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

(* One temperature slot. A swap exchanges the current states of two
   adjacent slots' walks; the RNG, the best and the trajectory stay
   with the slot, so slot k's entire move sequence is a function of the
   seed [substream_seed ~base k] and the (seed-derived) swap schedule
   alone — never of domain scheduling. *)
type slot = { rng : Rng.t; temperature : float; walk : Sa_bisect.walk }

(* One plateau of [sweeps * n] Metropolis proposals at the slot's fixed
   temperature, with no acceptance budget, drawing only from the slot's
   own stream and touching only the slot's own walk — safe and
   deterministic under Pool fan-out. *)
let step_slot cfg n slot =
  let trials = cfg.sweeps_per_round * max 1 n in
  Sa_bisect.plateau slot.walk slot.rng ~temperature:slot.temperature ~trials
    ~budget:(trials + 1)

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
    let slots =
      Array.init k (fun i ->
          let srng = Rng.substream ~base:chain_base i in
          let side0 = Initial.random srng g in
          {
            rng = srng;
            temperature = temps.(i);
            walk = Sa_bisect.walk ~record (Sa_bisect.Problem.make g side0);
          })
    in
    let attempted = ref 0 and accepted = ref 0 in
    let swaps_attempted = ref 0 and swaps_accepted = ref 0 in
    let pool = Pool.current () in
    for round = 0 to config.rounds - 1 do
      Obs.Trace.with_span Obs.Span.xsa_round
        ~args:[ ("round", Obs.Json.Int round); ("chains", Obs.Json.Int k) ]
        (fun () ->
          (* Chains are independent within a round: fan out on the
             ambient pool. Pool.init preserves index order, and each
             task touches only its own slot. *)
          Array.iter
            (fun (p : Gb_anneal.Sa.plateau) ->
              attempted := !attempted + p.p_attempted;
              accepted := !accepted + p.p_accepted)
            (Pool.init pool k (fun i -> step_slot config n slots.(i)));
          (* Deterministic swap phase: adjacent pairs, alternating
             parity by round, Metropolis decisions from the round's own
             substream. One uniform draw per considered pair, whatever
             the outcome, keeps the schedule's shape fixed. *)
          let srng = Rng.substream ~base:swap_base round in
          let i = ref (round land 1) in
          while !i + 1 < k do
            let a = slots.(!i) and b = slots.(!i + 1) in
            let ea = Sa_bisect.(Problem.cost (state a.walk))
            and eb = Sa_bisect.(Problem.cost (state b.walk)) in
            let beta_a = 1. /. a.temperature and beta_b = 1. /. b.temperature in
            let u = Rng.float srng 1.0 in
            incr swaps_attempted;
            if u < exp ((beta_a -. beta_b) *. (ea -. eb)) then begin
              Sa_bisect.swap a.walk b.walk;
              incr swaps_accepted
            end;
            i := !i + 2
          done)
    done;
    (* Per slot, Sa_bisect.refine's answer: the better of the slot's best
       balanced state and its greedily rebalanced final state (the best
       wins ties). Then the best slot overall — ties to the lowest slot
       index. *)
    let answers = Array.map (fun s -> Sa_bisect.finish g s.walk) slots in
    let cut i = match answers.(i) with _, _, c -> c in
    let best_chain = ref 0 in
    Array.iteri (fun i _ -> if cut i < cut !best_chain then best_chain := i) answers;
    let best_sides, best_was_snapshot, _ = answers.(!best_chain) in
    Obs.Metrics.add m_proposed !attempted;
    Obs.Metrics.add m_accepted !accepted;
    Obs.Metrics.add m_swaps_attempted !swaps_attempted;
    Obs.Metrics.add m_swaps_accepted !swaps_accepted;
    ( Bisection.of_sides g best_sides,
      {
        chains = k;
        rounds = config.rounds;
        temperatures = temps;
        attempted = !attempted;
        accepted = !accepted;
        swaps_attempted = !swaps_attempted;
        swaps_accepted = !swaps_accepted;
        best_chain = !best_chain;
        best_was_snapshot;
        trajectories =
          (if record then Array.map (fun s -> Sa_bisect.trajectory s.walk) slots else [||]);
      } )
  end
