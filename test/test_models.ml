(* Tests for the random graph models of paper §IV: Gnp, G2set (planted),
   Gbreg (regular planted), and the degree-sequence substrate. *)

module Graph = Gbisect.Graph
module Gnp = Gbisect.Gnp
module Planted = Gbisect.Planted
module Bregular = Gbisect.Bregular
module Degree_seq = Gbisect.Degree_seq
module Traverse = Gbisect.Traverse
module Bisection = Gbisect.Bisection
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- Gnp -------------------------------------------------------------- *)

let gnp_tests =
  [
    case "p=0 yields the empty graph" (fun () ->
        let g = Gnp.generate (Helpers.rng ()) ~n:50 ~p:0. in
        check_int "m" 0 (Graph.n_edges g));
    case "p=1 yields the complete graph" (fun () ->
        let g = Gnp.generate (Helpers.rng ()) ~n:20 ~p:1. in
        check_int "m" 190 (Graph.n_edges g));
    case "graphs validate and are simple" (fun () ->
        for seed = 1 to 10 do
          let g = Gnp.generate (Helpers.rng ~seed ()) ~n:200 ~p:0.02 in
          Helpers.check_graph_ok g
        done);
    case "edge count concentrates around the mean" (fun () ->
        (* 30 draws at n=400, p=0.01: mean 798, sd per draw ~28,
           sd of total ~155. Allow 5 sigma around the mean. *)
        let total = ref 0 in
        for seed = 1 to 30 do
          total := !total + Graph.n_edges (Gnp.generate (Helpers.rng ~seed ()) ~n:400 ~p:0.01)
        done;
        let expected = 30. *. 0.01 *. float_of_int (400 * 399 / 2) in
        check_bool
          (Printf.sprintf "total %d near %.0f" !total expected)
          true
          (float_of_int !total > expected -. 800. && float_of_int !total < expected +. 800.));
    case "individual edges are unbiased" (fun () ->
        (* Edge (0,1) should appear with probability p across seeds. *)
        let hits = ref 0 in
        let trials = 2000 in
        for seed = 1 to trials do
          let g = Gnp.generate (Helpers.rng ~seed ()) ~n:12 ~p:0.3 in
          if Graph.mem_edge g 0 1 then incr hits
        done;
        let frac = float_of_int !hits /. float_of_int trials in
        check_bool (Printf.sprintf "frac %.3f near 0.3" frac) true
          (frac > 0.26 && frac < 0.34));
    case "last pair of the enumeration is reachable" (fun () ->
        (* Regression guard for the geometric-skip walk: the (n-2, n-1)
           pair must be generatable. *)
        let seen = ref false in
        for seed = 1 to 200 do
          let g = Gnp.generate (Helpers.rng ~seed ()) ~n:6 ~p:0.5 in
          if Graph.mem_edge g 4 5 then seen := true
        done;
        check_bool "pair (n-2, n-1) appears" true !seen);
    case "with_average_degree hits the requested degree" (fun () ->
        let g =
          Gnp.with_average_degree (Helpers.rng ()) ~n:2000 ~avg_degree:3.0
        in
        let avg = Graph.average_degree g in
        check_bool (Printf.sprintf "avg %.2f near 3" avg) true (avg > 2.6 && avg < 3.4));
    case "parameter validation" (fun () ->
        Alcotest.check_raises "p" (Invalid_argument "Gnp.generate: p out of [0,1]")
          (fun () -> ignore (Gnp.generate (Helpers.rng ()) ~n:5 ~p:1.5));
        Alcotest.check_raises "n" (Invalid_argument "Gnp.generate: negative n")
          (fun () -> ignore (Gnp.generate (Helpers.rng ()) ~n:(-1) ~p:0.5)));
    case "determinism: same seed, same graph" (fun () ->
        let g1 = Gnp.generate (Helpers.rng ~seed:7 ()) ~n:100 ~p:0.05 in
        let g2 = Gnp.generate (Helpers.rng ~seed:7 ()) ~n:100 ~p:0.05 in
        check_bool "equal" true (Graph.equal g1 g2));
  ]

(* --- Planted (G2set) --------------------------------------------------- *)

let planted_tests =
  [
    case "cross edges are exactly bis" (fun () ->
        for seed = 1 to 10 do
          let params = Planted.{ two_n = 200; p_a = 0.03; p_b = 0.03; bis = 17 } in
          let g = Planted.generate (Helpers.rng ~seed ()) params in
          Helpers.check_graph_ok g;
          let sides = Planted.planted_sides params in
          check_int "cut = bis" 17 (Bisection.compute_cut g sides)
        done);
    case "cross edges are exactly bis past 65,536 vertices" (fun () ->
        (* n = 32,769, so n^2 passes 2^30, the largest bound Rng.int
           takes: the cross pairs are drawn endpoint by endpoint. *)
        let params = Planted.params_for_average_degree ~two_n:65_538 ~avg_degree:3. ~bis:500 in
        let g = Planted.generate (Helpers.rng ~seed:5 ()) params in
        Helpers.check_graph_ok g;
        check_int "n" 65_538 (Graph.n_vertices g);
        check_bool "unit weights: no pair drawn twice" true (Graph.is_unit_weighted g);
        check_int "cut = bis" 500 (Bisection.compute_cut g (Planted.planted_sides params)));
    case "bis=0 disconnects the halves" (fun () ->
        let params = Planted.{ two_n = 100; p_a = 0.2; p_b = 0.2; bis = 0 } in
        let g = Planted.generate (Helpers.rng ()) params in
        let sides = Planted.planted_sides params in
        check_int "no cross edges" 0 (Bisection.compute_cut g sides));
    case "asymmetric densities show up per side" (fun () ->
        let params = Planted.{ two_n = 400; p_a = 0.15; p_b = 0.01; bis = 0 } in
        let g = Planted.generate (Helpers.rng ()) params in
        let deg_side limit_lo limit_hi =
          let sum = ref 0 in
          for v = limit_lo to limit_hi do
            sum := !sum + Graph.degree g v
          done;
          !sum
        in
        check_bool "A denser than B" true (deg_side 0 199 > 3 * deg_side 200 399));
    case "params_for_average_degree achieves the degree" (fun () ->
        let params = Planted.params_for_average_degree ~two_n:2000 ~avg_degree:3.5 ~bis:32 in
        let expected =
          let n = float_of_int (params.two_n / 2) in
          (n *. (n -. 1.) *. (params.p_a +. params.p_b) +. (2. *. float_of_int params.bis))
          /. float_of_int params.two_n
        in
        Alcotest.(check (float 0.01)) "expected degree" 3.5 expected;
        let g = Planted.generate (Helpers.rng ()) params in
        let avg = Graph.average_degree g in
        check_bool (Printf.sprintf "measured %.2f near 3.5" avg) true
          (avg > 3.1 && avg < 3.9));
    case "planted_sides splits evenly" (fun () ->
        let params = Planted.{ two_n = 10; p_a = 0.5; p_b = 0.5; bis = 3 } in
        let sides = Planted.planted_sides params in
        Alcotest.(check (pair int int)) "5/5" (5, 5) (Bisection.side_counts sides));
    case "parameter validation" (fun () ->
        let bad params name =
          match Planted.generate (Helpers.rng ()) params with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "accepted %s" name
        in
        bad Planted.{ two_n = 7; p_a = 0.1; p_b = 0.1; bis = 0 } "odd two_n";
        bad Planted.{ two_n = 10; p_a = -0.1; p_b = 0.1; bis = 0 } "negative p";
        bad Planted.{ two_n = 10; p_a = 0.1; p_b = 0.1; bis = 26 } "bis > n^2";
        bad Planted.{ two_n = 10; p_a = 0.1; p_b = 0.1; bis = -1 } "negative bis");
  ]

(* --- Degree sequences --------------------------------------------------- *)

let degree_seq_tests =
  [
    case "is_graphical basics" (fun () ->
        check_bool "regular" true (Degree_seq.is_graphical [| 2; 2; 2 |]);
        check_bool "odd sum" false (Degree_seq.is_graphical [| 1; 1; 1 |]);
        check_bool "too large" false (Degree_seq.is_graphical [| 3; 1; 1 |]);
        check_bool "star" true (Degree_seq.is_graphical [| 3; 1; 1; 1 |]);
        check_bool "empty" true (Degree_seq.is_graphical [||]);
        check_bool "zeros" true (Degree_seq.is_graphical [| 0; 0 |]);
        (* Erdos-Gallai violation: two vertices want degree 3 in K3-land. *)
        check_bool "infeasible" false (Degree_seq.is_graphical [| 3; 3; 1; 1 |]);
        (* Brute force for n <= 6: mark the degree sequence of each of the
           2^C(n,2) labelled simple graphs, then every sequence with
           entries in [-1, n] is graphical exactly when marked. A
           sequence is read as a number in base n + 2, digit d + 1. *)
        for n = 0 to 6 do
          let pairs = List.concat (List.init n (fun u -> List.init u (fun v -> (u, v)))) in
          let base = n + 2 in
          let size = int_of_float (float_of_int base ** float_of_int n) in
          let code deg = Array.fold_left (fun acc d -> (acc * base) + d + 1) 0 deg in
          let marked = Array.make size false in
          for mask = 0 to (1 lsl List.length pairs) - 1 do
            let deg = Array.make n 0 in
            List.iteri
              (fun i (u, v) ->
                if mask land (1 lsl i) <> 0 then begin
                  deg.(u) <- deg.(u) + 1;
                  deg.(v) <- deg.(v) + 1
                end)
              pairs;
            marked.(code deg) <- true
          done;
          for c = 0 to size - 1 do
            let deg = Array.make n 0 and rest = ref c in
            for i = n - 1 downto 0 do
              deg.(i) <- (!rest mod base) - 1;
              rest := !rest / base
            done;
            if Degree_seq.is_graphical deg <> marked.(c) then
              Alcotest.failf "is_graphical [|%s|] is %b"
                (String.concat "; " (Array.to_list (Array.map string_of_int deg)))
                (not marked.(c))
          done
        done);
    case "generate realises the sequence exactly" (fun () ->
        for seed = 1 to 20 do
          let deg = [| 3; 2; 2; 2; 1; 2 |] in
          let g = Degree_seq.generate (Helpers.rng ~seed ()) deg in
          Helpers.check_graph_ok g;
          Array.iteri
            (fun v d -> check_int (Printf.sprintf "deg %d" v) d (Graph.degree g v))
            deg
        done);
    case "generate rejects non-graphical input" (fun () ->
        Alcotest.check_raises "odd sum"
          (Invalid_argument "Degree_seq.generate: odd degree sum") (fun () ->
            ignore (Degree_seq.generate (Helpers.rng ()) [| 1; 1; 1 |]));
        match Degree_seq.generate (Helpers.rng ()) [| 3; 3; 1; 1 |] with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "accepted non-graphical sequence");
    case "random_regular produces regular simple graphs" (fun () ->
        List.iter
          (fun (n, d) ->
            let g = Degree_seq.random_regular (Helpers.rng ~seed:(n + d) ()) ~n ~d in
            Helpers.check_graph_ok g;
            check_bool
              (Printf.sprintf "%d-regular on %d" d n)
              true
              (Helpers.regular g d))
          [ (10, 3); (50, 4); (100, 3); (64, 6); (20, 19); (8, 2) ]);
    case "random_regular rejects infeasible parameters" (fun () ->
        Alcotest.check_raises "odd product" (Invalid_argument "Degree_seq.random_regular")
          (fun () -> ignore (Degree_seq.random_regular (Helpers.rng ()) ~n:5 ~d:3));
        Alcotest.check_raises "d >= n" (Invalid_argument "Degree_seq.random_regular")
          (fun () -> ignore (Degree_seq.random_regular (Helpers.rng ()) ~n:4 ~d:4)));
    case "dense regular graphs are realisable (swap repair)" (fun () ->
        let g = Degree_seq.random_regular (Helpers.rng ()) ~n:12 ~d:9 in
        check_bool "9-regular" true (Helpers.regular g 9));
  ]

(* --- Bregular ------------------------------------------------------------ *)

let bregular_tests =
  [
    case "feasibility conditions" (fun () ->
        let ok p = Bregular.feasible p = Ok () in
        check_bool "basic" true (ok Bregular.{ two_n = 100; b = 4; d = 3 });
        check_bool "odd two_n" false (ok Bregular.{ two_n = 101; b = 4; d = 3 });
        check_bool "parity violation" false (ok Bregular.{ two_n = 100; b = 3; d = 3 });
        (* n=50, d=3: n*d = 150 even, so b must be even. *)
        check_bool "b too large" false (ok Bregular.{ two_n = 100; b = 151; d = 3 });
        check_bool "d too large" false (ok Bregular.{ two_n = 10; b = 2; d = 5 });
        check_bool "d zero" false (ok Bregular.{ two_n = 10; b = 2; d = 0 }));
    case "nearest_feasible_b fixes parity" (fun () ->
        (* n=50, d=3 -> n*d even -> b must be even. *)
        check_int "3 -> 4" 4 (Bregular.nearest_feasible_b Bregular.{ two_n = 100; b = 3; d = 3 });
        check_int "4 stays" 4 (Bregular.nearest_feasible_b Bregular.{ two_n = 100; b = 4; d = 3 });
        (* n=25, d=3 -> n*d odd -> b must be odd. *)
        check_int "4 -> 5" 5 (Bregular.nearest_feasible_b Bregular.{ two_n = 50; b = 4; d = 3 });
        check_int "clamps at 0 side" 1
          (Bregular.nearest_feasible_b Bregular.{ two_n = 50; b = 0; d = 3 }));
    case "generated graphs are d-regular with planted cut b" (fun () ->
        List.iter
          (fun (two_n, b, d) ->
            let params = Bregular.{ two_n; b; d } in
            let g = Bregular.generate (Helpers.rng ~seed:(two_n + b + d) ()) params in
            Helpers.check_graph_ok g;
            check_bool
              (Printf.sprintf "regular (%d,%d,%d)" two_n b d)
              true
              (Helpers.regular g d);
            let sides = Array.init two_n (fun v -> if v < two_n / 2 then 0 else 1) in
            check_int "planted cut" b (Bisection.compute_cut g sides))
          [ (100, 4, 3); (100, 0, 4); (200, 16, 3); (64, 8, 5); (100, 10, 4) ]);
    case "generate rejects infeasible parameters" (fun () ->
        match Bregular.generate (Helpers.rng ()) Bregular.{ two_n = 100; b = 3; d = 3 } with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "accepted parity violation");
    case "degree-2 instances are disjoint cycles (paper remark)" (fun () ->
        let params = Bregular.{ two_n = 100; b = 2; d = 2 } in
        let g = Bregular.generate (Helpers.rng ()) params in
        check_bool "2-regular" true (Helpers.regular g 2);
        (* every component of a 2-regular simple graph is a cycle *)
        let label, count = Traverse.components g in
        let sizes = Array.make count 0 in
        Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) label;
        Array.iter (fun s -> check_bool "cycle length >= 3" true (s >= 3)) sizes);
    case "planted cut is near-optimal for small b (spot check)" (fun () ->
        (* On a small instance the exact solver confirms width <= b. *)
        let params = Bregular.{ two_n = 20; b = 2; d = 3 } in
        let g = Bregular.generate (Helpers.rng ~seed:5 ()) params in
        let w = Gbisect.Exact.bisection_width g in
        check_bool (Printf.sprintf "width %d <= 2" w) true (w <= 2));
    case "determinism" (fun () ->
        let params = Bregular.{ two_n = 100; b = 8; d = 3 } in
        let g1 = Bregular.generate (Helpers.rng ~seed:3 ()) params in
        let g2 = Bregular.generate (Helpers.rng ~seed:3 ()) params in
        check_bool "equal" true (Graph.equal g1 g2));
  ]

(* --- Geometric ------------------------------------------------------------ *)

module Geometric = Gbisect.Geometric

let geometric_tests =
  [
    case "radius 0 yields no edges; radius sqrt(2) the complete graph" (fun () ->
        let g = Geometric.generate (Helpers.rng ()) ~n:40 ~radius:0. in
        check_int "empty" 0 (Graph.n_edges g);
        let g = Geometric.generate (Helpers.rng ()) ~n:20 ~radius:1.5 in
        check_int "complete" 190 (Graph.n_edges g));
    case "graphs validate" (fun () ->
        for seed = 1 to 10 do
          let g = Geometric.generate (Helpers.rng ~seed ()) ~n:300 ~radius:0.06 in
          Helpers.check_graph_ok g
        done);
    case "grid hashing matches brute force adjacency" (fun () ->
        (* Same points, naive O(n^2) edge recomputation. *)
        let g, pts = Geometric.generate_with_points (Helpers.rng ()) ~n:120 ~radius:0.15 in
        let edges = ref 0 in
        for u = 0 to 119 do
          for v = u + 1 to 119 do
            let dx = pts.(u).Geometric.x -. pts.(v).Geometric.x in
            let dy = pts.(u).Geometric.y -. pts.(v).Geometric.y in
            if (dx *. dx) +. (dy *. dy) <= 0.15 *. 0.15 then begin
              incr edges;
              check_bool "edge present" true (Graph.mem_edge g u v)
            end
            else check_bool "edge absent" false (Graph.mem_edge g u v)
          done
        done;
        check_int "edge count" !edges (Graph.n_edges g));
    case "radius_for_average_degree hits the target in the bulk" (fun () ->
        let n = 2000 in
        let r = Geometric.radius_for_average_degree ~n ~avg_degree:8.0 in
        let g = Geometric.generate (Helpers.rng ()) ~n ~radius:r in
        let avg = Graph.average_degree g in
        (* boundary effects bias slightly low *)
        check_bool (Printf.sprintf "avg %.2f in [6.4, 8.8]" avg) true
          (avg > 6.4 && avg < 8.8));
    case "strip cut is a valid balanced cut" (fun () ->
        let g, pts = Geometric.generate_with_points (Helpers.rng ()) ~n:200 ~radius:0.1 in
        let cut = Geometric.strip_cut g pts in
        check_bool "non-negative" true (cut >= 0);
        check_bool "not all edges" true (cut <= Graph.n_edges g));
    case "locality: strip cut well below half the edges" (fun () ->
        let g, pts = Geometric.generate_with_points (Helpers.rng ()) ~n:1000 ~radius:0.05 in
        let cut = Geometric.strip_cut g pts in
        check_bool
          (Printf.sprintf "strip %d << m/2 = %d" cut (Graph.n_edges g / 2))
          true
          (4 * cut < Graph.n_edges g));
    case "parameter validation" (fun () ->
        Alcotest.check_raises "negative radius"
          (Invalid_argument "Geometric.generate: negative radius") (fun () ->
            ignore (Geometric.generate (Helpers.rng ()) ~n:5 ~radius:(-0.1)));
        Alcotest.check_raises "n < 2"
          (Invalid_argument "Geometric.radius_for_average_degree: n < 2") (fun () ->
            ignore (Geometric.radius_for_average_degree ~n:1 ~avg_degree:3.)));
    case "determinism" (fun () ->
        let g1 = Geometric.generate (Helpers.rng ~seed:4 ()) ~n:100 ~radius:0.1 in
        let g2 = Geometric.generate (Helpers.rng ~seed:4 ()) ~n:100 ~radius:0.1 in
        check_bool "equal" true (Graph.equal g1 g2));
  ]

(* --- Every model --------------------------------------------------------- *)

(* Each generator's draw for a fixed seed, as data: the MD5 of its
   edge-list rendering, then the stream's next raw draw, which pins how
   far the draw advanced the stream; a draw that raises pins its
   message instead. A rewrite of the generators must keep every line. *)
let pinned_draws =
  let breg two_n b d rng = Bregular.generate rng Bregular.{ two_n; b; d } in
  [
    ("gbreg(200, 0, 3)", 1, breg 200 0 3, "bff8c5d45ff2e04ebc4b087fe65d4fb1 683425024");
    ("gbreg(200, 16, 3)", 1, breg 200 16 3, "c254c5505a0c5e5277dd9e004abea73d 228078228");
    ("gbreg(200, 298, 3)", 3, breg 200 298 3, "f6a453aaac59dad89a4096f96ed005cb 401954389");
    ("gbreg(200, 0, 4)", 1, breg 200 0 4, "ed95ba2349102855d478405b03354e26 424649394");
    ("gbreg(200, 16, 4)", 1, breg 200 16 4, "f4426b0c2f4e4739356f2216cf46ad9d 1072649006");
    ("gbreg(200, 396, 4)", 1, breg 200 396 4, "169f915fa4daab2aa47c3c6182eefe8a 429697179");
    ( "gbreg(8, 2, 2)",
      19,
      breg 8 2 2,
      "Failure: Bregular: could not realise distinct cross edges (b too close to n*d?) 475136292"
    );
    ( "g2set(200, 2.5, 16)",
      1,
      (fun rng ->
        Planted.generate rng (Planted.params_for_average_degree ~two_n:200 ~avg_degree:2.5 ~bis:16)),
      "7ea692bb25137d21a3d7043d899a3683 483593415" );
    ( "degree sequence",
      1,
      (fun rng ->
        Degree_seq.generate rng (Array.init 101 (fun v -> if v = 100 then 2 else 1 + (v * 7 mod 6)))),
      "2368db56dc15455c41b6990bd42a3eec 341331504" );
    ( "random_regular(200, 3)",
      1,
      (fun rng -> Degree_seq.random_regular rng ~n:200 ~d:3),
      "3e26acb5912cb42b967d4a876b4c2308 324071315" );
    ( "random_regular(12, 9)",
      1,
      (fun rng -> Degree_seq.random_regular rng ~n:12 ~d:9),
      "0f67daf0b864224b086070ffe91d4f62 399309202" );
  ]

(* One sweep over all five generators with parameters drawn from the
   seed: each output must pass [Graph.check] with unit weights and the
   requested vertex count, and the regular models must hit their degree. *)
let every_model_tests =
  [
    case "random parameters give valid simple graphs" (fun () ->
        for seed = 1 to 40 do
          let rng = Helpers.rng ~seed () in
          let two_n = 2 * (2 + (seed mod 19)) in
          let half = two_n / 2 in
          let d = 1 + (seed mod (half - 1)) in
          let ok label g =
            Helpers.check_graph_ok g;
            check_int (Printf.sprintf "%s n (seed %d)" label seed) two_n (Graph.n_vertices g);
            check_bool (label ^ " unit weights") true (Graph.is_unit_weighted g)
          in
          ok "gnp" (Gnp.generate rng ~n:two_n ~p:0.2);
          let bis = seed mod ((half * half) + 1) in
          ok "planted" (Planted.generate rng { two_n; p_a = 0.3; p_b = 0.1; bis });
          let regular = Degree_seq.random_regular rng ~n:two_n ~d in
          ok "random_regular" regular;
          check_bool "random_regular degree" true (Helpers.regular regular d);
          let b = Bregular.nearest_feasible_b { two_n; b = seed; d } in
          let breg = Bregular.generate rng { two_n; b; d } in
          ok "bregular" breg;
          check_bool "bregular degree" true (Helpers.regular breg d);
          ok "geometric" (Geometric.generate rng ~n:two_n ~radius:0.3)
        done);
    case "pinned seeds draw the recorded graphs" (fun () ->
        List.iter
          (fun (label, seed, draw, expected) ->
            let rng = Helpers.rng ~seed () in
            let outcome =
              match draw rng with
              | g -> Digest.to_hex (Digest.string (Gbisect.Graph_io.to_edge_list_string g))
              | exception Failure msg -> "Failure: " ^ msg
            in
            Alcotest.(check string) label expected (Printf.sprintf "%s %d" outcome (Gbisect.Lfg.next rng)))
          pinned_draws);
  ]

let () =
  Alcotest.run "models"
    [
      ("gnp", gnp_tests);
      ("planted", planted_tests);
      ("degree_seq", degree_seq_tests);
      ("bregular", bregular_tests);
      ("geometric", geometric_tests);
      ("every model", every_model_tests);
    ]
