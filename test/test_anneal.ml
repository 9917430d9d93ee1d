(* Tests for the annealing schedule, the annealing loop of Sa_bisect
   (counters, caps, traces, the best-state snapshot), the bisection
   problem, threshold accepting, and both annealers against the
   verbatim pre-cached-gain reference in sa_reference.ml. *)

module Schedule = Gbisect.Schedule
module Sa = Gbisect.Sa
module Sa_bisect = Gbisect.Sa_bisect
module Graph = Gbisect.Graph
module Classic = Gbisect.Classic
module Bisection = Gbisect.Bisection
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- Schedule ------------------------------------------------------------ *)

let schedule_tests =
  [
    case "default validates" (fun () -> Schedule.validate Schedule.default);
    case "quick and thorough validate" (fun () ->
        Schedule.validate Schedule.quick;
        Schedule.validate Schedule.thorough);
    case "bad fields are rejected" (fun () ->
        let bad fields name =
          match Schedule.validate fields with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "accepted %s" name
        in
        bad { Schedule.default with cooling = 1.0 } "cooling 1";
        bad { Schedule.default with cooling = 0.0 } "cooling 0";
        bad { Schedule.default with size_factor = 0 } "size_factor 0";
        bad { Schedule.default with min_acceptance = 1.0 } "min_acceptance 1";
        bad { Schedule.default with frozen_after = 0 } "frozen_after 0";
        bad { Schedule.default with max_temperatures = 0 } "max_temperatures 0";
        bad
          { Schedule.default with initial_temperature = Schedule.Fixed_temperature 0. }
          "fixed 0";
        bad
          { Schedule.default with initial_temperature = Schedule.Calibrate 1.0 }
          "calibrate 1");
  ]

(* --- The annealing loop ------------------------------------------------------ *)

let quick_config =
  { Sa_bisect.imbalance_factor = 0.05; schedule = Schedule.quick }

let with_schedule schedule = { Sa_bisect.default_config with schedule }

let fixed_temperature ?(max_temperatures = Schedule.default.max_temperatures) t =
  {
    Schedule.default with
    initial_temperature = Schedule.Fixed_temperature t;
    max_temperatures;
  }

(* A graph and a balanced start on which annealing has room to move. *)
let annealing_input ?(seed = 7) n =
  let r = Helpers.rng ~seed () in
  let g = Gbisect.Gnp.with_average_degree r ~n ~avg_degree:3. in
  (g, Helpers.balanced_sides r g)

let engine_tests =
  [
    case "toy problem is solved to optimality" (fun () ->
        (* Two disjoint 8-cliques: every balanced assignment but the
           two cliques themselves cuts at least 14 edges, so the
           default schedule must reach the zero cut. *)
        let edges = ref [] in
        for u = 0 to 7 do
          for v = u + 1 to 7 do
            edges := (u, v) :: (8 + u, 8 + v) :: !edges
          done
        done;
        let g = Graph.of_unweighted_edges ~n:16 !edges in
        let side0 = Helpers.balanced_sides (Helpers.rng ()) g in
        let side, _ = Sa_bisect.refine (Helpers.rng ()) g side0 in
        check_int "optimal" 0 (Bisection.compute_cut g side));
    case "best state is a snapshot, not an alias" (fun () ->
        (* The returned sides share no array with the annealing state or
           the caller's start: writing to them changes neither the start
           nor what the same seed anneals to next time. *)
        let g, side0 = annealing_input 60 in
        let start = Array.copy side0 in
        let side, _ = Sa_bisect.refine ~config:quick_config (Helpers.rng ()) g side0 in
        let answer = Array.copy side in
        check_bool "not the start array" true (side != side0);
        Array.fill side 0 (Array.length side) 0;
        check_bool "start untouched" true (side0 = start);
        let again, _ = Sa_bisect.refine ~config:quick_config (Helpers.rng ()) g side0 in
        check_bool "a fresh array per call" true (again != side);
        check_bool "same answer" true (again = answer));
    case "stats counters are coherent" (fun () ->
        let g, side0 = annealing_input 40 in
        let _, stats = Sa_bisect.refine (Helpers.rng ()) g side0 in
        let s = stats.Sa_bisect.sa in
        check_bool "attempted > 0" true (s.Sa.attempted > 0);
        check_bool "accepted <= attempted" true (s.Sa.accepted <= s.Sa.attempted);
        check_bool "uphill <= accepted" true (s.Sa.uphill_accepted <= s.Sa.accepted);
        check_bool "temperatures > 0" true (s.Sa.temperatures > 0);
        check_bool "temperature decreased" true
          (s.Sa.final_temperature <= s.Sa.initial_temperature));
    case "max_temperatures cap is honoured" (fun () ->
        let g, side0 = annealing_input 20 in
        let config = with_schedule { Schedule.default with max_temperatures = 3 } in
        let _, stats = Sa_bisect.refine ~config (Helpers.rng ()) g side0 in
        check_bool "stopped at cap" true (stats.Sa_bisect.sa.Sa.temperatures <= 3);
        check_bool "not flagged frozen" true (not stats.Sa_bisect.sa.Sa.frozen));
    case "trace fires once per temperature" (fun () ->
        let g, side0 = annealing_input 20 in
        let calls = ref 0 in
        let trace ~temperature:_ ~acceptance:_ ~best_cost:_ = incr calls in
        let _, stats = Sa_bisect.refine ~trace (Helpers.rng ()) g side0 in
        check_int "trace count" stats.Sa_bisect.sa.Sa.temperatures !calls);
    case "fixed initial temperature is used" (fun () ->
        let g, side0 = annealing_input 20 in
        let config = with_schedule (fixed_temperature 3.25) in
        let _, stats = Sa_bisect.refine ~config (Helpers.rng ()) g side0 in
        Alcotest.(check (float 1e-9)) "t0" 3.25 stats.Sa_bisect.sa.Sa.initial_temperature);
    case "high fixed temperature accepts most uphill moves" (fun () ->
        let g, side0 = annealing_input 40 in
        let config = with_schedule (fixed_temperature ~max_temperatures:1 100.) in
        let _, stats = Sa_bisect.refine ~config (Helpers.rng ()) g side0 in
        let s = stats.Sa_bisect.sa in
        let ratio = float_of_int s.Sa.accepted /. float_of_int s.Sa.attempted in
        check_bool (Printf.sprintf "acceptance %.2f > 0.9" ratio) true (ratio > 0.9));
  ]

(* --- Bisection instance ------------------------------------------------------ *)

let sa_bisect_tests =
  [
    case "result is balanced and cut-consistent" (fun () ->
        let g = Classic.grid ~rows:6 ~cols:6 in
        let b, stats = Sa_bisect.run ~config:quick_config (Helpers.rng ()) g in
        Helpers.check_bisection_consistent g b;
        check_bool "balanced" true (Bisection.is_balanced b);
        check_int "final_cut stat" (Bisection.cut b) stats.Sa_bisect.final_cut);
    case "solves a two-cliques instance" (fun () ->
        (* Two K8s joined by one edge: optimal cut 1, found reliably. *)
        let edges = ref [] in
        for u = 0 to 7 do
          for v = u + 1 to 7 do
            edges := (u, v) :: (8 + u, 8 + v) :: !edges
          done
        done;
        edges := (0, 8) :: !edges;
        let g = Graph.of_unweighted_edges ~n:16 !edges in
        let best = ref max_int in
        for seed = 1 to 5 do
          let b, _ = Sa_bisect.run ~config:quick_config (Helpers.rng ~seed ()) g in
          best := min !best (Bisection.cut b)
        done;
        check_int "optimum" 1 !best);
    case "never beats the exact width on small graphs" (fun () ->
        for seed = 1 to 15 do
          let r = Helpers.rng ~seed () in
          let g = Gbisect.Gnp.generate r ~n:12 ~p:0.3 in
          let opt = Gbisect.Exact.bisection_width g in
          let b, _ = Sa_bisect.run ~config:quick_config r g in
          check_bool "sa >= opt" true (Bisection.cut b >= opt)
        done);
    case "refine from the planted bisection stays at or below it" (fun () ->
        let params = Gbisect.Bregular.{ two_n = 200; b = 4; d = 4 } in
        let g = Gbisect.Bregular.generate (Helpers.rng ()) params in
        let planted = Gbisect.Bregular.planted_sides params in
        let side, _ = Sa_bisect.refine ~config:quick_config (Helpers.rng ()) g planted in
        check_bool "no worse than planted" true (Bisection.compute_cut g side <= 4));
    case "unbalanced start is rejected" (fun () ->
        let g = Classic.path 4 in
        Alcotest.check_raises "unbalanced"
          (Invalid_argument "Sa_bisect: input bisection is not balanced") (fun () ->
            ignore (Sa_bisect.refine (Helpers.rng ()) g [| 0; 0; 0; 1 |])));
    case "non-positive imbalance factor is rejected" (fun () ->
        let g = Classic.path 4 in
        let config = { quick_config with Sa_bisect.imbalance_factor = 0. } in
        Alcotest.check_raises "alpha"
          (Invalid_argument "Sa_bisect: imbalance_factor must be positive") (fun () ->
            ignore (Sa_bisect.refine ~config (Helpers.rng ()) g [| 0; 0; 1; 1 |])));
    case "odd vertex counts stay within slack" (fun () ->
        let g = Classic.path 9 in
        let b, _ = Sa_bisect.run ~config:quick_config (Helpers.rng ()) g in
        let c0, c1 = Bisection.counts b in
        check_bool "within 1" true (abs (c0 - c1) <= 1));
    case "weighted coarse graphs anneal too" (fun () ->
        let g =
          Graph.of_edges ~vertex_weights:[| 2; 2; 1; 1 |] ~n:4
            [ (0, 1, 3); (1, 2, 1); (2, 3, 2); (3, 0, 1) ]
        in
        let b, _ = Sa_bisect.run ~config:quick_config (Helpers.rng ()) g in
        check_bool "balanced by count" true (Bisection.is_balanced b));
  ]

let sa_bisect_properties =
  [
    Helpers.qtest ~count:40 "sa returns balanced bisections on random graphs"
      (Helpers.gen_even_graph ~max_n:20 ()) (fun g ->
        let b, _ = Sa_bisect.run ~config:quick_config (Helpers.rng ()) g in
        Bisection.is_balanced b);
    Helpers.qtest ~count:40 "delta matches cost difference on the problem state"
      (Helpers.gen_even_graph ~max_n:20 ()) (fun g ->
        (* Flip random vertices through Problem.apply, then compare
           Problem.delta and Problem.cost for every vertex with costs
           computed from scratch. *)
        let alpha = quick_config.Sa_bisect.imbalance_factor in
        let scratch_cost side =
          let c0, c1 = Bisection.side_counts side in
          let d = float_of_int (c0 - c1) in
          float_of_int (Bisection.compute_cut g side) +. (alpha *. d *. d)
        in
        let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b) in
        let r = Helpers.rng ~seed:(Graph.n_edges g) () in
        let st = Sa_bisect.Problem.make quick_config g (Helpers.balanced_sides r g) in
        let n = Graph.n_vertices g in
        let ok = ref true in
        for _ = 1 to 3 * n do
          Sa_bisect.Problem.apply st (Rng.int r n);
          let side = Sa_bisect.Problem.sides st in
          let cost = scratch_cost side in
          ok := !ok && close (Sa_bisect.Problem.cost st) cost;
          for v = 0 to n - 1 do
            let flipped = Array.copy side in
            flipped.(v) <- 1 - flipped.(v);
            ok := !ok && close (Sa_bisect.Problem.delta st v) (scratch_cost flipped -. cost)
          done
        done;
        !ok);
  ]

(* --- Cutoff -------------------------------------------------------------- *)

let cutoff_tests =
  [
    case "cutoff field validates" (fun () ->
        Schedule.validate { Schedule.default with cutoff = 0.5 };
        match Schedule.validate { Schedule.default with cutoff = 0. } with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "accepted cutoff 0");
    case "cutoff reduces attempted moves in the hot phase" (fun () ->
        let g, side0 = annealing_input 50 in
        let run cutoff =
          let schedule = { (fixed_temperature ~max_temperatures:10 50.) with cutoff } in
          let _, stats =
            Sa_bisect.refine ~config:(with_schedule schedule) (Helpers.rng ~seed:3 ()) g side0
          in
          stats.Sa_bisect.sa
        in
        let full = run 1.0 and cut = run 0.1 in
        check_bool
          (Printf.sprintf "attempted %d < %d" cut.Sa.attempted full.Sa.attempted)
          true
          (cut.Sa.attempted < full.Sa.attempted));
    case "cutoff does not break bisection quality on an easy instance" (fun () ->
        let g = Classic.ladder 30 in
        let config =
          { Sa_bisect.imbalance_factor = 0.05;
            schedule = { Schedule.default with cutoff = 0.25 } }
        in
        let b, _ = Sa_bisect.run ~config (Helpers.rng ()) g in
        check_bool "reasonable" true (Bisection.cut b <= 12));
  ]

(* --- Threshold accepting --------------------------------------------------- *)

module Threshold = Gbisect.Threshold

let threshold_tests =
  [
    case "default schedule validates" (fun () ->
        Threshold.validate Threshold.default_schedule);
    case "bad schedules rejected" (fun () ->
        let bad s name =
          match Threshold.validate s with
          | exception Invalid_argument _ -> ()
          | () -> Alcotest.failf "accepted %s" name
        in
        bad { Threshold.default_schedule with decay = 1. } "decay 1";
        bad { Threshold.default_schedule with size_factor = 0 } "size 0";
        bad { Threshold.default_schedule with frozen_after = 0 } "frozen 0";
        bad { Threshold.default_schedule with initial_threshold = `Fixed 0. } "fixed 0");
    case "solves the two-cliques instance" (fun () ->
        let edges = ref [] in
        for u = 0 to 7 do
          for v = u + 1 to 7 do
            edges := (u, v) :: (8 + u, 8 + v) :: !edges
          done
        done;
        edges := (0, 8) :: !edges;
        let g = Gbisect.Graph.of_unweighted_edges ~n:16 !edges in
        let best = ref max_int in
        for seed = 1 to 5 do
          let b, _ = Threshold.run (Helpers.rng ~seed ()) g in
          best := min !best (Bisection.cut b)
        done;
        check_int "optimum" 1 !best);
    case "result is balanced and stats coherent" (fun () ->
        let g = Classic.grid ~rows:8 ~cols:8 in
        let b, stats = Threshold.run (Helpers.rng ()) g in
        check_bool "balanced" true (Bisection.is_balanced b);
        check_bool "levels > 0" true (stats.Threshold.levels > 0);
        check_bool "accepted <= attempted" true
          (stats.Threshold.accepted <= stats.Threshold.attempted);
        check_bool "threshold decayed" true
          (stats.Threshold.final_threshold <= stats.Threshold.initial_threshold));
    case "unbalanced start rejected" (fun () ->
        let g = Classic.path 4 in
        Alcotest.check_raises "unbalanced"
          (Invalid_argument "Threshold: input bisection is not balanced") (fun () ->
            ignore (Threshold.refine (Helpers.rng ()) g [| 0; 0; 0; 1 |])));
    case "never beats the exact width on small graphs" (fun () ->
        for seed = 1 to 10 do
          let r = Helpers.rng ~seed () in
          let g = Gbisect.Gnp.generate r ~n:12 ~p:0.3 in
          let opt = Gbisect.Exact.bisection_width g in
          let b, _ = Threshold.run r g in
          check_bool "ta >= opt" true (Bisection.cut b >= opt)
        done);
  ]

(* --- Against the reference --------------------------------------------------- *)

(* Sa_bisect.refine and Threshold.refine must return exactly what the
   verbatim engine in sa_reference.ml returns: the same sides, the same
   stats with every plateau record, floats compared bit for bit, and
   the same trace-callback sequence. *)

let bits = Int64.bits_of_float

let plateau_key (p : Sa.plateau) =
  ( (bits p.temperature, p.p_attempted, p.p_accepted, p.p_accepted_uphill),
    (p.p_accepted_downhill, p.p_rejected, bits p.acceptance, bits p.p_best_cost),
    p.improved_best )

let stats_key (s : Sa_bisect.stats) =
  let sa = s.sa in
  ( (sa.temperatures, sa.attempted, sa.accepted, sa.uphill_accepted),
    (bits sa.initial_temperature, bits sa.final_temperature, sa.frozen),
    List.map plateau_key sa.plateaus,
    (s.best_was_snapshot, s.initial_cut, s.final_cut) )

let reference_schedules =
  [
    ("default", Schedule.default);
    ("quick", Schedule.quick);
    ("cutoff 0.25", { Schedule.default with cutoff = 0.25 });
    ("fixed high", fixed_temperature ~max_temperatures:2 50.);
    ("fixed low", fixed_temperature ~max_temperatures:2 0.5);
  ]

(* One anneal, reduced to comparable values: the sides, the stats and
   the trace calls, or the message of the exception it raised. *)
let outcome refine =
  let calls = ref [] in
  let trace ~temperature ~acceptance ~best_cost =
    calls := (bits temperature, bits acceptance, bits best_cost) :: !calls
  in
  match refine trace with
  | side, stats -> Ok (side, stats_key stats, List.rev !calls)
  | exception Invalid_argument msg -> Error msg

let same_as_reference ~seed g side =
  List.for_all
    (fun (_, schedule) ->
      let config = { Sa_bisect.imbalance_factor = 0.05; schedule } in
      outcome (fun trace -> Sa_bisect.refine ~config ~trace (Rng.create ~seed) g side)
      = outcome (fun trace -> Sa_reference.refine ~config ~trace (Rng.create ~seed) g side))
    reference_schedules

let threshold_same_as_reference ~seed g side =
  let run refine =
    match refine (Rng.create ~seed) with
    | r -> Ok r
    | exception Invalid_argument msg -> Error msg
  in
  List.for_all
    (fun schedule ->
      run (fun rng -> Threshold.refine ~schedule rng g side)
      = run (fun rng -> Sa_reference.threshold_refine ~schedule rng g side))
    [
      Threshold.default_schedule;
      { Threshold.default_schedule with initial_threshold = `Fixed 0.5; max_levels = 3 };
    ]

let first_of_every_family () =
  let module G = Gbisect.Fuzz_generators in
  List.map
    (fun family ->
      let rec first seed =
        match G.generate ~seed with
        | { G.family = f; graph; _ } when String.equal f family -> graph
        | _ | (exception _) -> first (seed + 1)
      in
      (family, first 0))
    G.families

(* Weighted multigraphs with odd and even n: repeated pairs become
   parallel edges, merged with summed weights. *)
let gen_reference_case =
  let open QCheck2.Gen in
  let* n = int_range 1 40 in
  let* seed = int_range 0 1_000_000 in
  let r = Rng.create ~seed in
  let edges = ref [] in
  for _ = 1 to Rng.int r (4 * n) + 1 do
    let u = Rng.int r n and v = Rng.int r n in
    if u <> v then begin
      edges := (u, v, 1 + Rng.int r 5) :: !edges;
      if Rng.bernoulli r 0.3 then edges := (v, u, 1 + Rng.int r 5) :: !edges
    end
  done;
  let vertex_weights = Array.init n (fun _ -> 1 + Rng.int r 3) in
  let g = Graph.of_edges ~vertex_weights ~n !edges in
  return (g, Helpers.balanced_sides r g, seed)

let print_reference_case (g, side, seed) =
  Printf.sprintf "%s sides [%s] seed %d" (Helpers.graph_print g)
    (String.concat ";" (Array.to_list (Array.map string_of_int side)))
    seed

let reference_tests =
  [
    case "one case of every fuzz family matches the reference" (fun () ->
        List.iter
          (fun (family, g) ->
            let side = Helpers.balanced_sides (Helpers.rng ()) g in
            check_bool family true (same_as_reference ~seed:11 g side))
          (first_of_every_family ()));
    case "gnp(400) matches the reference" (fun () ->
        let r = Helpers.rng ~seed:5 () in
        let g = Gbisect.Gnp.with_average_degree r ~n:400 ~avg_degree:6. in
        let side = Helpers.balanced_sides r g in
        check_bool "same" true (same_as_reference ~seed:12 g side));
    case "threshold accepting matches the reference" (fun () ->
        let r = Helpers.rng ~seed:5 () in
        let gnp = Gbisect.Gnp.with_average_degree r ~n:400 ~avg_degree:6. in
        List.iter
          (fun (family, g) ->
            let side = Helpers.balanced_sides (Helpers.rng ()) g in
            check_bool family true (threshold_same_as_reference ~seed:13 g side))
          (("gnp(400)", gnp) :: first_of_every_family ()));
    Helpers.qtest_pair ~count:100 "weighted multigraphs match the reference"
      gen_reference_case print_reference_case (fun (g, side, seed) ->
        same_as_reference ~seed g side);
  ]

let () =
  Alcotest.run "anneal"
    [
      ("schedule", schedule_tests);
      ("engine", engine_tests);
      ("sa_bisect", sa_bisect_tests);
      ("sa_bisect properties", sa_bisect_properties);
      ("cutoff", cutoff_tests);
      ("threshold accepting", threshold_tests);
      ("sa reference", reference_tests);
    ]
