module Rng = Gb_prng.Rng
module Lfg = Gb_prng.Lfg
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

  let[@inline] cost st =
    let d = float_of_int (st.c0 - st.c1) in
    float_of_int st.cut +. (alpha *. d *. d)

  (* A flip's cost change depends on two integers only: the vertex's
     gain and the change in the squared count difference when a vertex
     on side [s] flips, which is 4 (1 -+ (c0 - c1)) and so at most
     4 (n + 1) in magnitude. *)
  let[@inline] imbalance_change st s =
    let d = st.c0 - st.c1 in
    let d' = if s = 0 then d - 2 else d + 2 in
    (d' * d') - (d * d)

  let[@inline] cost_change ~gain ~imbalance =
    float_of_int (-gain) +. (alpha *. float_of_int imbalance)

  let[@inline] delta st v =
    cost_change ~gain:st.gains.(v) ~imbalance:(imbalance_change st st.side.(v))

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
let calibrate rng (st : Problem.state) fraction =
  let samples = 200 in
  let sum = ref 0. and count = ref 0 in
  for _ = 1 to samples do
    let d = Problem.delta st (Rng.int rng (Array.length st.side)) in
    if d > 0. then begin
      sum := !sum +. d;
      incr count
    end
  done;
  if !count = 0 then 1.0
  else
    let mean = !sum /. float_of_int !count in
    -.mean /. log fraction

(* The plateau's draws, without a call. Under the dev profile's
   -opaque every call into Rng or Lfg is an indirect call through the
   module block (and one with several arguments goes through
   caml_applyN), which pushes the loop's live values out of registers.
   [lfg_next] is [Lfg.next]'s step on the exposed record, lags 100 and
   37 modulo 2^30, and [bounded] is [Rng.int]'s rejection loop on it,
   with the limit computed by the caller. test_prng holds both to
   [Lfg.next], [Rng.int] and [Rng.float]. *)
let[@inline] lfg_next (g : Rng.t) =
  let i = g.Lfg.pos in
  let j = if i < 37 then i + 63 else i - 37 in
  let v = (g.Lfg.state.(i) - g.Lfg.state.(j)) land 0x3FFF_FFFF in
  g.Lfg.state.(i) <- v;
  g.Lfg.pos <- (if i = 99 then 0 else i + 1);
  v

let[@inline] bounded g n ~limit =
  let v = ref (lfg_next g) in
  while !v >= limit do
    v := lfg_next g
  done;
  !v mod n

(* The acceptance probabilities e^(-delta/T) of one plateau, memoised
   in a direct-mapped table keyed on delta's two integers: slot [i]
   holds a gain, an imbalance change and the probability of a flip
   with both. A cleared slot's imbalance change is [min_int], which no
   flip produces. *)
let memo_slots = 256
let no_imbalance = min_int

(* A walk's best balanced state is [best_side], with cost [best_cost].
   Flips accepted since [best_side] was last written go into [log];
   [logged] counts them and may pass n, and then the next best copies
   the whole side array. A swap sets [logged] past n for that reason. *)
type walk = {
  mutable state : Problem.state;
  best_side : int array;
  log : int array;
  mutable logged : int;
  mutable best_cost : float;
  record : bool;
  mutable trajectory : int list; (* accepted flips, newest first, when [record] *)
  gain_tags : int array;
  imbalance_tags : int array; (* cleared by each plateau *)
  memo : float array;
}

let walk ?(record = false) (st : Problem.state) =
  let n = Array.length st.side in
  {
    state = st;
    best_side = Array.copy st.side;
    log = Array.make n 0;
    logged = 0;
    best_cost = Problem.cost st;
    record;
    trajectory = [];
    gain_tags = Array.make memo_slots 0;
    imbalance_tags = Array.make memo_slots no_imbalance;
    memo = Array.make memo_slots 0.;
  }

let state w = w.state

(* Figure 1's lines 5-11 at one temperature. The counters and the best
   are locals, written back once: a float field would box each new best
   cost. Each proposal draws what [Rng.int rng n] draws, and an uphill
   one then what [Rng.float rng 1.0] draws, built here from two raw
   draws so that the uniform stays an unboxed float; dividing by 2^30
   and multiplying by 2^-30 give the same bits. The draws are inline;
   the plateau's one call, for the rejection limit, comes before the
   loop. *)
let plateau w rng ~temperature ~trials ~budget =
  let st = w.state and best_side = w.best_side and log = w.log and record = w.record in
  let gain_tags = w.gain_tags and imbalance_tags = w.imbalance_tags and memo = w.memo in
  let n = Array.length st.side in
  let limit = Rng.rejection_limit n in
  Array.fill imbalance_tags 0 memo_slots no_imbalance;
  let logged = ref w.logged and best_cost = ref w.best_cost in
  let attempted = ref 0 and accepted = ref 0 and uphill = ref 0 in
  let improved_best = ref false in
  while !attempted < trials && !accepted < budget do
    incr attempted;
    let v = bounded rng n ~limit in
    (* The reads below skip the bounds check: [v] is below n, and the
       slot [i] below [memo_slots]. *)
    let gain = Array.unsafe_get st.gains v in
    let imbalance = Problem.imbalance_change st (Array.unsafe_get st.side v) in
    let d = Problem.cost_change ~gain ~imbalance in
    if
      d <= 0.
      ||
      let hi = lfg_next rng in
      let lo = lfg_next rng in
      let u = (float_of_int hi +. (float_of_int lo *. 0x1p-30)) *. 0x1p-30 in
      let i = (gain + (imbalance lsl 2)) land (memo_slots - 1) in
      let p =
        if Array.unsafe_get gain_tags i = gain && Array.unsafe_get imbalance_tags i = imbalance
        then Array.unsafe_get memo i
        else begin
          let p = exp (-.d /. temperature) in
          Array.unsafe_set gain_tags i gain;
          Array.unsafe_set imbalance_tags i imbalance;
          Array.unsafe_set memo i p;
          p
        end
      in
      u < p
    then begin
      Problem.apply st v;
      incr accepted;
      if d > 0. then incr uphill;
      if record then w.trajectory <- v :: w.trajectory;
      if !logged < n then log.(!logged) <- v;
      incr logged;
      if abs (st.c0 - st.c1) <= st.balance_slack then begin
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
  w.logged <- !logged;
  w.best_cost <- !best_cost;
  {
    Sa.temperature;
    p_attempted = !attempted;
    p_accepted = !accepted;
    p_accepted_uphill = !uphill;
    p_accepted_downhill = !accepted - !uphill;
    p_rejected = !attempted - !accepted;
    acceptance = float_of_int !accepted /. float_of_int !attempted;
    p_best_cost = !best_cost;
    improved_best = !improved_best;
  }

let swap a b =
  let t = a.state in
  a.state <- b.state;
  b.state <- t;
  a.logged <- Array.length a.log + 1;
  b.logged <- Array.length b.log + 1

let trajectory w = Array.of_list (List.rev w.trajectory)

let finish g w =
  let best_cut = Bisection.compute_cut g w.best_side in
  let side = w.state.side in
  Bisection.rebalance_in_place g side;
  let rebalanced_cut = Bisection.compute_cut g side in
  if best_cut <= rebalanced_cut then (w.best_side, true, best_cut)
  else (side, false, rebalanced_cut)

(* Figure 1 on [w]: one plateau per temperature until frozen. *)
let anneal schedule rng w =
  Schedule.validate schedule;
  let t0 =
    match schedule.Schedule.initial_temperature with
    | Schedule.Fixed_temperature t -> t
    | Schedule.Calibrate fraction -> calibrate rng w.state fraction
  in
  let n = Array.length w.state.side in
  let temperature = ref t0 in
  let attempted = ref 0 and accepted = ref 0 and uphill = ref 0 in
  let cold_streak = ref 0 in
  let temperatures = ref 0 in
  let frozen = ref false in
  let plateaus = ref [] in
  let trials = schedule.Schedule.size_factor * max 1 n in
  let budget =
    (* JAMS cutoff: leave a temperature early once this many moves
       have been accepted (trials + 1 disables it). *)
    if schedule.Schedule.cutoff >= 1. then trials + 1
    else max 1 (int_of_float (schedule.Schedule.cutoff *. float_of_int trials))
  in
  while
    (not !frozen)
    && !temperatures < schedule.Schedule.max_temperatures
    && !temperature > Schedule.min_temperature
  do
    let span = Obs.Trace.start () in
    let p = plateau w rng ~temperature:!temperature ~trials ~budget in
    incr temperatures;
    attempted := !attempted + p.p_attempted;
    accepted := !accepted + p.p_accepted;
    uphill := !uphill + p.p_accepted_uphill;
    plateaus := p :: !plateaus;
    Obs.Metrics.incr m_plateaus;
    Obs.Metrics.add m_proposed p.p_attempted;
    Obs.Metrics.add m_accepted_uphill p.p_accepted_uphill;
    Obs.Metrics.add m_accepted_downhill p.p_accepted_downhill;
    Obs.Metrics.add m_rejected_uphill p.p_rejected;
    Obs.Metrics.observe h_acceptance (100. *. p.acceptance);
    Obs.Telemetry.sample Obs.Span.sa_plateau p.p_best_cost;
    Obs.Trace.finish span Obs.Span.sa_plateau
      ~args:
        [
          ("plateau", Obs.Json.Int !temperatures);
          ("temperature", Obs.Json.Float !temperature);
          ("attempted", Obs.Json.Int p.p_attempted);
          ("accepted", Obs.Json.Int p.p_accepted);
          ("acceptance", Obs.Json.Float p.acceptance);
          ("best_cost", Obs.Json.Float p.p_best_cost);
        ];
    if p.acceptance < Schedule.min_acceptance && not p.improved_best then incr cold_streak
    else cold_streak := 0;
    if !cold_streak >= schedule.Schedule.frozen_after then frozen := true
    else temperature := !temperature *. schedule.Schedule.cooling
  done;
  {
    Sa.temperatures = !temperatures;
    attempted = !attempted;
    accepted = !accepted;
    uphill_accepted = !uphill;
    initial_temperature = t0;
    final_temperature = !temperature;
    frozen = !frozen;
    plateaus = List.rev !plateaus;
  }

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
    let w = walk (Problem.make g side0) in
    let initial_cut = w.state.cut in
    let sa =
      Obs.Trace.with_span Obs.Span.sa_anneal
        ~args:
          [
            ("vertices", Obs.Json.Int (Csr.n_vertices g));
            ("initial_cut", Obs.Json.Int initial_cut);
          ]
        (fun () -> anneal schedule rng w)
    in
    let side, best_was_snapshot, final_cut = finish g w in
    (side, { sa; best_was_snapshot; initial_cut; final_cut })
  end

let run ?schedule rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine ?schedule rng g side0 in
  (Bisection.of_sides g side, stats)
