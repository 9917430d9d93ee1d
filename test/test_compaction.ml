(* Tests for the compaction heuristic: the five-step scheme, CKL/CSA,
   refiner combinators and the recursive (multilevel) extension. *)

module Graph = Gbisect.Graph
module Classic = Gbisect.Classic
module Bisection = Gbisect.Bisection
module Compaction = Gbisect.Compaction
module Bregular = Gbisect.Bregular
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let kl = Compaction.kl_refiner ()
let fm = Compaction.fm_refiner ()

let sa_quick = Compaction.sa_refiner ~schedule:Gbisect.Schedule.quick ()

let bisect_tests =
  [
    case "stats describe a genuine coarsening" (fun () ->
        let g = Classic.grid ~rows:8 ~cols:8 in
        let b, stats = Compaction.bisect ~refiner:kl (Helpers.rng ()) g in
        Helpers.check_bisection_consistent g b;
        check_int "fine n" 64 stats.Compaction.fine_vertices;
        check_bool "shrank" true (stats.Compaction.coarse_vertices < 64);
        check_bool "at least half" true (stats.Compaction.coarse_vertices >= 32);
        check_int "levels" 1 stats.Compaction.levels;
        check_int "final cut matches" (Bisection.cut b) stats.Compaction.final_cut);
    case "coarse average degree rises on sparse graphs (paper §V)" (fun () ->
        let params = Bregular.{ two_n = 400; b = 8; d = 3 } in
        let g = Bregular.generate (Helpers.rng ()) params in
        let _, stats = Compaction.bisect ~refiner:kl (Helpers.rng ()) g in
        check_bool
          (Printf.sprintf "coarse deg %.2f > 3" stats.Compaction.coarse_average_degree)
          true
          (stats.Compaction.coarse_average_degree > 3.0));
    case "result is balanced" (fun () ->
        let g = Classic.ladder 31 in
        (* odd rung count, 62 vertices *)
        let b, _ = Compaction.bisect ~refiner:kl (Helpers.rng ()) g in
        check_bool "balanced" true (Bisection.is_balanced b));
    case "refinement can only improve the projected start" (fun () ->
        for seed = 1 to 10 do
          let g = Classic.grid ~rows:6 ~cols:8 in
          let _, stats = Compaction.bisect ~refiner:kl (Helpers.rng ~seed ()) g in
          check_bool "final <= projected" true
            (stats.Compaction.final_cut <= stats.Compaction.projected_cut)
        done);
    case "CKL recovers the planted cut where KL fails (Obs 2)" (fun () ->
        (* Degree-3 planted graphs defeat plain KL most of the time but
           CKL finds the plant; run a handful of seeds and require CKL
           to win on average by a wide margin. *)
        let params = Bregular.{ two_n = 600; b = 4; d = 3 } in
        let kl_total = ref 0 and ckl_total = ref 0 in
        for seed = 1 to 6 do
          let g = Bregular.generate (Helpers.rng ~seed ()) params in
          let r = Helpers.rng ~seed:(100 + seed) () in
          let bkl, _ = Gbisect.Kl.run r g in
          let bckl, _ = Compaction.ckl r g in
          kl_total := !kl_total + Bisection.cut bkl;
          ckl_total := !ckl_total + Bisection.cut bckl
        done;
        check_bool
          (Printf.sprintf "CKL total %d << KL total %d" !ckl_total !kl_total)
          true
          (!ckl_total * 2 <= !kl_total || !ckl_total <= 6 * 6));
    case "CSA runs and is balanced" (fun () ->
        let params = Bregular.{ two_n = 200; b = 4; d = 3 } in
        let g = Bregular.generate (Helpers.rng ()) params in
        let b, _ = Compaction.csa ~schedule:Gbisect.Schedule.quick (Helpers.rng ()) g in
        check_bool "balanced" true (Bisection.is_balanced b));
    case "heavy-edge policy also works" (fun () ->
        let g = Classic.grid ~rows:8 ~cols:8 in
        let b, _ =
          Compaction.bisect ~policy:Compaction.Heavy_edge_matching ~refiner:kl
            (Helpers.rng ()) g
        in
        check_bool "balanced" true (Bisection.is_balanced b));
    case "fm refiner plugs in" (fun () ->
        let g = Classic.grid ~rows:8 ~cols:8 in
        let b, _ = Compaction.bisect ~refiner:fm (Helpers.rng ()) g in
        check_bool "balanced" true (Bisection.is_balanced b));
    case "matching maximality bounds the coarse size" (fun () ->
        (* A maximal matching on a connected graph matches at least one
           of every adjacent pair, so the coarse graph has at most
           n - matching_size vertices and at least n/2. *)
        for seed = 1 to 10 do
          let g = Gbisect.Gnp.generate (Helpers.rng ~seed ()) ~n:100 ~p:0.08 in
          let _, stats = Compaction.bisect ~refiner:kl (Helpers.rng ~seed ()) g in
          check_bool "at least half" true (2 * stats.Compaction.coarse_vertices >= 100);
          check_bool "no growth" true (stats.Compaction.coarse_vertices <= 100)
        done);
    case "deterministic given the seed" (fun () ->
        let g = Bregular.generate (Helpers.rng ()) Bregular.{ two_n = 300; b = 8; d = 3 } in
        let run seed = Bisection.cut (fst (Compaction.ckl (Helpers.rng ~seed ()) g)) in
        check_int "same result" (run 3) (run 3));
    case "edgeless graphs compact to a zero cut" (fun () ->
        let g = Graph.empty 8 in
        let b, _ = Compaction.bisect ~refiner:kl (Helpers.rng ()) g in
        check_int "cut 0" 0 (Bisection.cut b);
        check_bool "balanced" true (Bisection.is_balanced b));
  ]

let recursive_tests =
  [
    case "multilevel reaches the floor and refines back" (fun () ->
        let g = Classic.grid ~rows:16 ~cols:16 in
        let b, stats =
          Compaction.recursive ~min_vertices:32 ~refiner:kl (Helpers.rng ()) g
        in
        Helpers.check_bisection_consistent g b;
        check_bool "balanced" true (Bisection.is_balanced b);
        check_bool "several levels" true (stats.Compaction.levels >= 3);
        check_bool "coarsest small" true (stats.Compaction.coarse_vertices <= 64);
        check_int "fine n" 256 stats.Compaction.fine_vertices);
    case "multilevel solves sparse planted instances" (fun () ->
        let params = Bregular.{ two_n = 600; b = 4; d = 3 } in
        let ok = ref 0 in
        for seed = 1 to 5 do
          let g = Bregular.generate (Helpers.rng ~seed ()) params in
          let b, _ = Compaction.recursive ~refiner:kl (Helpers.rng ~seed ()) g in
          if Bisection.cut b <= 8 then incr ok
        done;
        check_bool (Printf.sprintf "near-planted on %d/5" !ok) true (!ok >= 4));
    case "max_levels caps the hierarchy" (fun () ->
        let g = Classic.grid ~rows:16 ~cols:16 in
        let _, stats =
          Compaction.recursive ~min_vertices:2 ~max_levels:2 ~refiner:kl (Helpers.rng ()) g
        in
        check_bool "at most 3 levels" true (stats.Compaction.levels <= 3));
    case "min_vertices below 2 rejected" (fun () ->
        let g = Classic.path 4 in
        Alcotest.check_raises "min_vertices"
          (Invalid_argument "Compaction.recursive: min_vertices < 2") (fun () ->
            ignore (Compaction.recursive ~min_vertices:1 ~refiner:kl (Helpers.rng ()) g)));
    case "tiny graphs skip coarsening gracefully" (fun () ->
        let g = Classic.path 6 in
        let b, stats = Compaction.recursive ~refiner:kl (Helpers.rng ()) g in
        check_int "single level" 1 stats.Compaction.levels;
        check_bool "balanced" true (Bisection.is_balanced b));
    case "observer sees every uncoarsening, coarsest-first" (fun () ->
        let g = Classic.grid ~rows:16 ~cols:16 in
        let seen = ref [] in
        let observer ~level ~fine ~coarse ~coarse_side ~projected ~rebalanced =
          seen := level :: !seen;
          (* projection preserves the cut: the projected fine sides
             cut exactly what the coarse sides cut *)
          check_int "projected cut = coarse cut"
            (Bisection.cut (Bisection.of_sides coarse coarse_side))
            (Bisection.cut (Bisection.of_sides fine projected));
          (* and the rebalanced start handed to the refiner is balanced *)
          check_bool "rebalanced is balanced" true
            (Bisection.is_balanced (Bisection.of_sides fine rebalanced))
        in
        let _, stats =
          Compaction.recursive ~min_vertices:32 ~observer ~refiner:kl (Helpers.rng ())
            g
        in
        check_int "one call per uncoarsening"
          (stats.Compaction.levels - 1)
          (List.length !seen);
        check_bool "levels run 1..levels-1 coarsest-first" true
          (List.rev !seen = List.init (stats.Compaction.levels - 1) (fun i -> i + 1)));
  ]

let compaction_properties =
  [
    Helpers.qtest ~count:100 "bisect returns balanced bisections"
      (Helpers.gen_even_graph ~max_n:24 ()) (fun g ->
        let b, _ = Compaction.bisect ~refiner:kl (Helpers.rng ()) g in
        Bisection.is_balanced b);
    Helpers.qtest ~count:100 "recursive returns balanced bisections"
      (Helpers.gen_even_graph ~max_n:24 ()) (fun g ->
        let b, _ = Compaction.recursive ~min_vertices:4 ~refiner:kl (Helpers.rng ()) g in
        Bisection.is_balanced b);
    Helpers.qtest ~count:60 "CKL never beats the exact width"
      (Helpers.gen_even_graph ~max_n:14 ()) (fun g ->
        let opt = Gbisect.Exact.bisection_width g in
        let b, _ = Compaction.ckl (Helpers.rng ()) g in
        Bisection.cut b >= opt);
    Helpers.qtest ~count:100 "sa refiner keeps balance through compaction"
      (Helpers.gen_even_graph ~max_n:16 ()) (fun g ->
        let b, _ = Compaction.bisect ~refiner:sa_quick (Helpers.rng ()) g in
        Bisection.is_balanced b);
  ]

let () =
  Alcotest.run "compaction"
    [
      ("bisect", bisect_tests);
      ("recursive", recursive_tests);
      ("properties", compaction_properties);
    ]
