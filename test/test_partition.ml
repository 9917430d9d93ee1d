(* Tests for the partition substrate: cuts, gains, rebalancing, initial
   bisections and the exact branch-and-bound oracle. *)

module Graph = Gbisect.Graph
module Classic = Gbisect.Classic
module Bisection = Gbisect.Bisection
module Initial = Gbisect.Initial
module Exact = Gbisect.Exact
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- cuts and gains ------------------------------------------------------ *)

let path4 () = Classic.path 4

let cut_tests =
  [
    case "cut of a path split in the middle" (fun () ->
        check_int "one edge" 1 (Bisection.compute_cut (path4 ()) [| 0; 0; 1; 1 |]));
    case "cut of an alternating path split" (fun () ->
        check_int "all edges" 3 (Bisection.compute_cut (path4 ()) [| 0; 1; 0; 1 |]));
    case "cut respects edge weights" (fun () ->
        let g = Graph.of_edges ~n:2 [ (0, 1, 7) ] in
        check_int "weighted" 7 (Bisection.compute_cut g [| 0; 1 |]));
    case "side_counts and side_weights" (fun () ->
        let g = Graph.of_edges ~vertex_weights:[| 1; 2; 3; 4 |] ~n:4 [] in
        Alcotest.(check (pair int int)) "counts" (2, 2) (Bisection.side_counts [| 0; 1; 0; 1 |]);
        Alcotest.(check (pair int int)) "weights" (4, 6)
          (Bisection.side_weights g [| 0; 1; 0; 1 |]));
    case "gain is external minus internal" (fun () ->
        (* 0-1 same side, 0-2 across: gain(0) = 1 - 1 = 0. *)
        let g = Graph.of_unweighted_edges ~n:3 [ (0, 1); (0, 2) ] in
        check_int "gain 0" 0 (Bisection.gain g [| 0; 0; 1 |] 0);
        check_int "gain 1" (-1) (Bisection.gain g [| 0; 0; 1 |] 1);
        check_int "gain 2" 1 (Bisection.gain g [| 0; 0; 1 |] 2));
    case "swap_gain matches the paper's g_ab formula" (fun () ->
        (* adjacent pair: g_ab = g_a + g_b - 2 w(a,b). *)
        let g = Graph.of_unweighted_edges ~n:4 [ (0, 2); (0, 1); (2, 3) ] in
        let side = [| 0; 0; 1; 1 |] in
        let expected =
          Bisection.gain g side 0 + Bisection.gain g side 2 - (2 * Graph.edge_weight g 0 2)
        in
        check_int "formula" expected (Bisection.swap_gain g side 0 2));
    case "swap_gain rejects same-side pairs" (fun () ->
        Alcotest.check_raises "same side" (Invalid_argument "Bisection.swap_gain: same side")
          (fun () -> ignore (Bisection.swap_gain (path4 ()) [| 0; 0; 1; 1 |] 0 1)));
    case "validate_sides rejects junk" (fun () ->
        Alcotest.check_raises "length"
          (Invalid_argument "Bisection: side array length mismatch") (fun () ->
            Bisection.validate_sides (path4 ()) [| 0; 1 |]);
        Alcotest.check_raises "values" (Invalid_argument "Bisection: sides must be 0 or 1")
          (fun () -> Bisection.validate_sides (path4 ()) [| 0; 2; 0; 1 |]));
  ]

let gain_property_tests =
  [
    Helpers.qtest "all_gains agrees with per-vertex gain"
      (Helpers.gen_weighted_graph ()) (fun g ->
        let r = Helpers.rng () in
        let side = Array.init (Graph.n_vertices g) (fun _ -> Rng.int r 2) in
        let gains = Bisection.all_gains g side in
        Array.for_all Fun.id
          (Array.mapi (fun v gv -> gv = Bisection.gain g side v) gains));
    Helpers.qtest "flipping v changes the cut by -gain(v)"
      (Helpers.gen_weighted_graph ()) (fun g ->
        let r = Helpers.rng () in
        let side = Array.init (Graph.n_vertices g) (fun _ -> Rng.int r 2) in
        let v = Rng.int r (Graph.n_vertices g) in
        let before = Bisection.compute_cut g side in
        let gain = Bisection.gain g side v in
        side.(v) <- 1 - side.(v);
        Bisection.compute_cut g side = before - gain);
    Helpers.qtest "swapping (a, b) changes the cut by -swap_gain"
      (Helpers.gen_even_graph ()) (fun g ->
        let r = Helpers.rng () in
        let side = Helpers.balanced_sides r g in
        let n = Graph.n_vertices g in
        (* find an opposite pair *)
        let a = ref (-1) and b = ref (-1) in
        for v = 0 to n - 1 do
          if side.(v) = 0 && !a < 0 then a := v;
          if side.(v) = 1 && !b < 0 then b := v
        done;
        let before = Bisection.compute_cut g side in
        let gain = Bisection.swap_gain g side !a !b in
        side.(!a) <- 1;
        side.(!b) <- 0;
        Bisection.compute_cut g side = before - gain);
  ]

(* --- packaged bisections -------------------------------------------------- *)

let packaged_tests =
  [
    case "of_sides caches cut, counts, weights" (fun () ->
        let g = path4 () in
        let b = Bisection.of_sides g [| 0; 0; 1; 1 |] in
        Helpers.check_bisection_consistent g b;
        check_int "cut" 1 (Bisection.cut b);
        check_bool "balanced" true (Bisection.is_balanced b);
        check_int "side of 2" 1 (Bisection.side b 2));
    case "of_sides copies its input" (fun () ->
        let g = path4 () in
        let arr = [| 0; 0; 1; 1 |] in
        let b = Bisection.of_sides g arr in
        arr.(0) <- 1;
        check_int "unaffected" 0 (Bisection.side b 0));
    case "sides returns a fresh copy" (fun () ->
        let g = path4 () in
        let b = Bisection.of_sides g [| 0; 0; 1; 1 |] in
        (Bisection.sides b).(0) <- 1;
        check_int "unaffected" 0 (Bisection.side b 0));
    case "unbalanced bisection reports itself" (fun () ->
        let g = path4 () in
        let b = Bisection.of_sides g [| 0; 0; 0; 1 |] in
        check_bool "unbalanced" false (Bisection.is_balanced b));
  ]

(* --- rebalance -------------------------------------------------------------- *)

let rebalance_tests =
  [
    case "already balanced input is untouched" (fun () ->
        let g = path4 () in
        let side = [| 0; 0; 1; 1 |] in
        Alcotest.(check (array int)) "unchanged" side (Bisection.rebalance g side));
    case "rebalances an all-zero assignment" (fun () ->
        let g = Classic.cycle 6 in
        let side = Bisection.rebalance g [| 0; 0; 0; 0; 0; 0 |] in
        check_bool "balanced" true (Bisection.is_count_balanced side));
    case "rebalance of a one-sided star reaches the tie-optimal cut" (fun () ->
        (* Star K_{1,5} with everything on side 0: any balanced repair
           cuts exactly 3 spokes (centre with 2 leaves vs 3 leaves, or
           the mirror image) — rebalance must land on cut 3. *)
        let g = Classic.star 5 in
        let side = Bisection.rebalance g (Array.make 6 0) in
        check_bool "balanced" true (Bisection.is_count_balanced side);
        check_int "cut 3" 3 (Bisection.compute_cut g side));
    case "odd graphs balance to within one" (fun () ->
        let g = Classic.path 7 in
        let side = Bisection.rebalance g (Array.make 7 1) in
        let c0, c1 = Bisection.side_counts side in
        check_bool "within 1" true (abs (c0 - c1) <= 1));
  ]

let rebalance_property_tests =
  [
    Helpers.qtest "rebalance always yields count balance"
      (Helpers.gen_graph ~max_n:30 ()) (fun g ->
        let r = Helpers.rng () in
        let side = Array.init (Graph.n_vertices g) (fun _ -> Rng.int r 2) in
        Bisection.is_count_balanced (Bisection.rebalance g side));
    Helpers.qtest "rebalance of balanced input is the identity"
      (Helpers.gen_even_graph ()) (fun g ->
        let r = Helpers.rng () in
        let side = Helpers.balanced_sides r g in
        Bisection.rebalance g side = side);
    Helpers.qtest ~count:300 "heap rebalance = greedy max-gain reference"
      (Helpers.gen_graph ~max_n:30 ()) (fun g ->
        (* Reference: until balanced, move the heavy-side vertex with
           the highest gain (smallest index on ties), recomputing all
           gains from scratch each step. The production version keeps
           a lazy-deletion heap with incremental gain updates; the two
           must pick the same vertices in the same order. *)
        let reference side =
          let side = Array.copy side in
          let n = Graph.n_vertices g in
          let counts () =
            let c = Array.fold_left ( + ) 0 side in
            (n - c, c)
          in
          let gain v =
            let x = ref 0 in
            Graph.iter_neighbors g v (fun u w ->
                if side.(u) = side.(v) then x := !x - w else x := !x + w);
            !x
          in
          let rec go () =
            let c0, c1 = counts () in
            if abs (c0 - c1) >= 2 then begin
              let from_side = if c0 > c1 then 0 else 1 in
              let best = ref (-1) in
              for v = n - 1 downto 0 do
                if side.(v) = from_side && (!best < 0 || gain v >= gain !best)
                then best := v
              done;
              side.(!best) <- 1 - from_side;
              go ()
            end
          in
          go ();
          side
        in
        let r = Helpers.rng () in
        let side = Array.init (Graph.n_vertices g) (fun _ -> Rng.int r 2) in
        Bisection.rebalance g side = reference side);
  ]

(* --- initial bisections -------------------------------------------------------- *)

let initial_tests =
  [
    case "random is balanced on even and odd n" (fun () ->
        List.iter
          (fun n ->
            let g = Classic.path n in
            let side = Initial.random (Helpers.rng ()) g in
            let c0, c1 = Bisection.side_counts side in
            check_bool (Printf.sprintf "n=%d" n) true (abs (c0 - c1) <= 1))
          [ 2; 3; 10; 11; 100 ]);
    case "random varies with the stream" (fun () ->
        let g = Classic.cycle 20 in
        let r = Helpers.rng () in
        let a = Initial.random r g and b = Initial.random r g in
        check_bool "different draws differ" true (a <> b));
    case "bfs_grow yields a connected side on connected graphs" (fun () ->
        let g = Classic.grid ~rows:6 ~cols:6 in
        let side = Initial.bfs_grow (Helpers.rng ()) g in
        check_bool "balanced" true (Bisection.is_count_balanced side);
        (* side 0 induces a connected subgraph *)
        let members = ref [] in
        Array.iteri (fun v s -> if s = 0 then members := v :: !members) side;
        let sub =
          Graph.of_unweighted_edges ~n:(Graph.n_vertices g)
            (List.concat_map
               (fun (u, v, _) -> if side.(u) = 0 && side.(v) = 0 then [ (u, v) ] else [])
               (Graph.edges g))
        in
        let label, _ = Gbisect.Traverse.components sub in
        let first = label.(List.hd !members) in
        check_bool "connected half" true (List.for_all (fun v -> label.(v) = first) !members));
    case "dfs_stripe cuts a cycle at two points" (fun () ->
        let g = Classic.cycle 40 in
        let side = Initial.dfs_stripe (Helpers.rng ()) g in
        check_bool "balanced" true (Bisection.is_count_balanced side);
        check_int "optimal cut" 2 (Bisection.compute_cut g side));
    case "dfs_stripe is optimal on paths" (fun () ->
        let g = Classic.path 40 in
        let side = Initial.dfs_stripe (Helpers.rng ()) g in
        check_int "cut 1" 1 (Bisection.compute_cut g side));
    case "bfs_grow is near-optimal on ladders" (fun () ->
        (* The BFS wavefront on a 2 x k ladder is at most 3 vertices
           wide, so the grown half has a boundary of <= 5 edges. *)
        let g = Classic.ladder 50 in
        let side = Initial.bfs_grow (Helpers.rng ()) g in
        let cut = Bisection.compute_cut g side in
        check_bool (Printf.sprintf "cut %d <= 5" cut) true (cut <= 5));
    case "growth handles disconnected graphs" (fun () ->
        let g = Classic.disjoint_cycles ~count:5 ~len:4 in
        List.iter
          (fun grow ->
            let side = grow (Helpers.rng ()) g in
            check_bool "balanced" true (Bisection.is_count_balanced side))
          [ Initial.bfs_grow; Initial.dfs_stripe ]);
    case "halves is deterministic and balanced" (fun () ->
        let g = Classic.path 6 in
        Alcotest.(check (array int)) "halves" [| 0; 0; 0; 1; 1; 1 |] (Initial.halves g));
  ]

(* --- exact solver -------------------------------------------------------------- *)

let exact_tests =
  [
    case "known widths of classic graphs" (fun () ->
        check_int "path" 1 (Exact.bisection_width (Classic.path 8));
        check_int "cycle" 2 (Exact.bisection_width (Classic.cycle 10));
        check_int "ladder" 2 (Exact.bisection_width (Classic.ladder 6));
        check_int "complete K6" 9 (Exact.bisection_width (Classic.complete 6));
        check_int "K4,4 (split pairs)" 8 (Exact.bisection_width
             (Graph.of_unweighted_edges ~n:8
                (List.concat_map (fun u -> List.init 4 (fun j -> (u, 4 + j))) [ 0; 1; 2; 3 ])));
        check_int "grid 4x4" 4 (Exact.bisection_width (Classic.grid ~rows:4 ~cols:4));
        check_int "star (centre alone)" 2 (Exact.bisection_width (Classic.star 4));
        check_int "two triangles" 0
          (Exact.bisection_width (Classic.disjoint_cycles ~count:2 ~len:3)));
    case "odd vertex counts allowed (n/2 rounding)" (fun () ->
        check_int "path of 5" 1 (Exact.bisection_width (Classic.path 5)));
    case "empty and singleton graphs" (fun () ->
        check_int "empty" 0 (Exact.bisection_width (Graph.empty 0));
        check_int "single" 0 (Exact.bisection_width (Graph.empty 1)));
    case "refuses big graphs unless limit raised" (fun () ->
        Alcotest.check_raises "too big"
          (Invalid_argument "Exact: graph too large (raise ~limit to force)") (fun () ->
            ignore (Exact.bisection_width (Classic.cycle 40)));
        check_int "forced" 2 (Exact.bisection_width ~limit:30 (Classic.cycle 24)));
    case "best_bisection is balanced and achieves the width" (fun () ->
        let g = Classic.grid ~rows:3 ~cols:4 in
        let b = Exact.best_bisection g in
        Helpers.check_bisection_consistent g b;
        check_bool "balanced" true (Bisection.is_balanced b);
        check_int "optimal" (Exact.bisection_width g) (Bisection.cut b));
    case "respects edge weights" (fun () ->
        (* Heavy edge forces the cut elsewhere: path 0-1-2-3 with w(1,2)=10
           still must cut somewhere; optimum cuts a light edge... but a
           balanced bisection of a path cuts exactly one edge; the best
           balanced split can only cut (1,2)?? No: {0,1}/{2,3} cuts (1,2);
           {0,3}/{1,2} cuts (0,1) and (2,3) = 2; {0,2}/{1,3} cuts 0-1,1-2,2-3
           = 12. So optimum is 2. *)
        let g = Graph.of_edges ~n:4 [ (0, 1, 1); (1, 2, 10); (2, 3, 1) ] in
        check_int "avoids heavy edge" 2 (Exact.bisection_width g));
  ]

let exact_property_tests =
  [
    Helpers.qtest ~count:60 "heuristics never beat the exact width"
      (Helpers.gen_even_graph ~max_n:14 ()) (fun g ->
        let opt = Exact.bisection_width g in
        let r = Helpers.rng () in
        let kl = fst (Gbisect.Kl.run r g) in
        let fm = fst (Gbisect.Fm.run r g) in
        Bisection.cut kl >= opt && Bisection.cut fm >= opt);
    Helpers.qtest ~count:60 "exact width is invariant under vertex relabeling"
      (Helpers.gen_even_graph ~max_n:12 ()) (fun g ->
        let n = Graph.n_vertices g in
        let r = Helpers.rng () in
        let perm = Rng.permutation r n in
        let relabeled =
          Graph.of_edges ~n
            (List.map (fun (u, v, w) -> (perm.(u), perm.(v), w)) (Graph.edges g))
        in
        Exact.bisection_width g = Exact.bisection_width relabeled);
  ]

(* --- brute force: exhaustive enumeration on tiny graphs ------------------- *)

(* The ground-truth oracle beneath the oracles: enumerate every
   count-balanced side assignment of a graph with <= 10 vertices
   (vertex 0 pinned to side 0 — the cut is mirror-symmetric) and take
   the minimum weighted cut. Exact.bisection_width and, on forests,
   Tree_exact must agree with it. *)
let enumerated_width g =
  let n = Graph.n_vertices g in
  assert (n >= 1 && n <= 10);
  let side = Array.make n 0 in
  let best = ref max_int in
  for mask = 0 to (1 lsl (n - 1)) - 1 do
    let ones = ref 0 in
    for v = 1 to n - 1 do
      let s = (mask lsr (v - 1)) land 1 in
      side.(v) <- s;
      ones := !ones + s
    done;
    if !ones = n / 2 || !ones = (n + 1) / 2 then begin
      let cut = Bisection.compute_cut g side in
      if cut < !best then best := cut
    end
  done;
  !best

let is_forest g =
  let _, c = Gbisect.Traverse.components g in
  Graph.n_edges g = Graph.n_vertices g - c

let gen_forest ~max_n =
  let open QCheck2.Gen in
  let* n = int_range 2 max_n in
  let* seed = int_range 0 1_000_000 in
  let r = Rng.create ~seed in
  (* random forest: each vertex > 0 attaches to an earlier vertex with
     probability 0.8, with a random weight, so some graphs are trees
     and some have several components *)
  let edges = ref [] in
  for v = 1 to n - 1 do
    if Rng.bernoulli r 0.8 then
      edges := (Rng.int r v, v, 1 + Rng.int r 4) :: !edges
  done;
  return (Graph.of_edges ~n !edges)

let brute_force_tests =
  [
    Helpers.qtest ~count:120 "branch-and-bound equals exhaustive enumeration"
      (Helpers.gen_graph ~min_n:2 ~max_n:10 ~p:0.35 ()) (fun g ->
        Exact.bisection_width g = enumerated_width g);
    Helpers.qtest ~count:60 "enumeration agrees on weighted graphs too"
      (Helpers.gen_weighted_graph ~max_n:9 ()) (fun g ->
        Exact.bisection_width g = enumerated_width g);
    Helpers.qtest ~count:120 "tree DP equals exhaustive enumeration on forests"
      (gen_forest ~max_n:10) (fun g ->
        assert (is_forest g);
        let w = Gbisect.Tree_exact.bisection_width g in
        w = enumerated_width g
        && Bisection.cut (Gbisect.Tree_exact.best_bisection g) = w);
    case "enumeration fixtures: known widths" (fun () ->
        check_int "P8" 1 (enumerated_width (Classic.path 8));
        check_int "C8" 2 (enumerated_width (Classic.cycle 8));
        check_int "K6" 9 (enumerated_width (Classic.complete 6));
        check_int "2x3 grid" 3 (enumerated_width (Classic.grid ~rows:2 ~cols:3)));
  ]

let () =
  Alcotest.run "partition"
    [
      ("cuts and gains", cut_tests);
      ("gain properties", gain_property_tests);
      ("packaged", packaged_tests);
      ("rebalance", rebalance_tests);
      ("rebalance properties", rebalance_property_tests);
      ("initial", initial_tests);
      ("exact", exact_tests);
      ("exact properties", exact_property_tests);
      ("brute force", brute_force_tests);
    ]
