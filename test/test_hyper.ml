(* Tests for the hypergraph subsystem: representation, expansions,
   hypergraph FM, netlist IO and the clustered netlist model. *)

module Hgraph = Gbisect.Hgraph
module Hfm = Gbisect.Hfm
module Expansion = Gbisect.Expansion
module Netlist_io = Gbisect.Netlist_io
module Random_netlist = Gbisect.Random_netlist
module Graph = Gbisect.Graph
module Bisection = Gbisect.Bisection
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* The dual-incidence invariant through the public API: every net's
   members are sorted, distinct and in range, each vertex lists only nets
   holding it, and both sides count the same pins. *)
let check_hgraph h =
  let n = Hgraph.n_vertices h and incidences = ref 0 in
  for e = 0 to Hgraph.n_nets h - 1 do
    let m = Hgraph.net_members h e in
    Array.iteri
      (fun k v ->
        if v < 0 || v >= n || (k > 0 && m.(k - 1) >= v) then Alcotest.failf "net %d malformed" e)
      m
  done;
  for v = 0 to n - 1 do
    Hgraph.iter_vertex_nets h v (fun e ->
        incr incidences;
        if not (Array.mem v (Hgraph.net_members h e)) then
          Alcotest.failf "dual mismatch: vertex %d lists net %d" v e)
  done;
  check_int "pins" (Hgraph.n_pins h) !incidences

(* One HFM pass, through [refine]: the new sides and the cut decrease. *)
let one_pass h side =
  let next, stats = Hfm.refine ~max_passes:1 h side in
  (next, stats.Hfm.initial_cut - stats.Hfm.final_cut)

(* A small reference netlist: 6 cells, nets {0,1,2} {2,3} {3,4,5} {0,5}. *)
let sample () = Hgraph.of_nets ~n:6 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 5 ]; [ 0; 5 ] ]

let qnetlist ?(count = 100) name prop =
  Helpers.qtest_pair ~count name
    QCheck2.Gen.(
      let* n = int_range 4 20 in
      let* k = int_range 1 12 in
      let* seed = int_range 0 1_000_000 in
      let rng = Rng.create ~seed in
      let nets =
        List.init k (fun _ ->
            let size = 1 + Rng.int rng (min 5 n) in
            Array.to_list (Rng.sample_without_replacement rng ~k:size ~n))
      in
      return (n, nets))
    (fun (n, nets) ->
      Printf.sprintf "n=%d nets=[%s]" n
        (String.concat ";"
           (List.map (fun net -> String.concat "," (List.map string_of_int net)) nets)))
    prop

let hgraph_tests =
  [
    case "construction and sizes" (fun () ->
        let h = sample () in
        check_hgraph h;
        check_int "n" 6 (Hgraph.n_vertices h);
        check_int "nets" 4 (Hgraph.n_nets h);
        check_int "pins" 10 (Hgraph.n_pins h);
        check_int "net 0 size" 3 (Hgraph.net_size h 0);
        check_int "vertex 0 degree" 2 (Hgraph.vertex_degree h 0);
        Alcotest.(check (float 1e-9)) "avg net" 2.5 (Hgraph.average_net_size h));
    case "members and incidences are sorted" (fun () ->
        let h = Hgraph.of_nets ~n:5 [ [ 4; 0; 2 ] ] in
        Alcotest.(check (array int)) "sorted" [| 0; 2; 4 |] (Hgraph.net_members h 0));
    case "duplicate pins collapse" (fun () ->
        let h = Hgraph.of_nets ~n:3 [ [ 1; 1; 2 ] ] in
        check_int "deduped" 2 (Hgraph.net_size h 0));
    case "bad input rejected" (fun () ->
        Alcotest.check_raises "empty net" (Invalid_argument "Hgraph.of_nets: empty net")
          (fun () -> ignore (Hgraph.of_nets ~n:3 [ [] ]));
        Alcotest.check_raises "range" (Invalid_argument "Hgraph.of_nets: member out of range")
          (fun () -> ignore (Hgraph.of_nets ~n:3 [ [ 5 ] ])));
    case "cut_size counts spanning nets" (fun () ->
        let h = sample () in
        check_int "all one side" 0 (Hgraph.cut_size h [| 0; 0; 0; 0; 0; 0 |]);
        (* split {0,1,2} vs {3,4,5}: nets {2,3} and {0,5} span. *)
        check_int "block split" 2 (Hgraph.cut_size h [| 0; 0; 0; 1; 1; 1 |]);
        (* alternating split cuts every net of size >= 2 *)
        check_int "alternating" 4 (Hgraph.cut_size h [| 0; 1; 0; 1; 0; 1 |]));
    case "single-pin nets never cut" (fun () ->
        let h = Hgraph.of_nets ~n:2 [ [ 0 ]; [ 1 ]; [ 0; 1 ] ] in
        check_int "only the real net" 1 (Hgraph.cut_size h [| 0; 1 |]));
  ]

let hgraph_properties =
  [
    qnetlist "check passes on random netlists" (fun (n, nets) ->
        let h = Hgraph.of_nets ~n nets in
        check_hgraph h;
        true);
    qnetlist "pin count = sum of net sizes = sum of degrees" (fun (n, nets) ->
        let h = Hgraph.of_nets ~n nets in
        let by_nets = ref 0 and by_deg = ref 0 in
        for e = 0 to Hgraph.n_nets h - 1 do
          by_nets := !by_nets + Hgraph.net_size h e
        done;
        for v = 0 to n - 1 do
          by_deg := !by_deg + Hgraph.vertex_degree h v
        done;
        !by_nets = Hgraph.n_pins h && !by_deg = Hgraph.n_pins h);
    qnetlist "netlist IO round trip" (fun (n, nets) ->
        let h = Hgraph.of_nets ~n nets in
        let h' = Netlist_io.of_string (Helpers.netlist_text h) in
        Hgraph.n_vertices h' = n
        && Hgraph.n_nets h' = Hgraph.n_nets h
        && List.for_all
             (fun e -> Hgraph.net_members h e = Hgraph.net_members h' e)
             (List.init (Hgraph.n_nets h) Fun.id));
    qnetlist "hmetis IO round trip" (fun (n, nets) ->
        let h = Hgraph.of_nets ~n nets in
        let h' = Netlist_io.of_hmetis_string (Helpers.netlist_text ~hmetis:true h) in
        Hgraph.n_nets h' = Hgraph.n_nets h
        && List.for_all
             (fun e -> Hgraph.net_members h e = Hgraph.net_members h' e)
             (List.init (Hgraph.n_nets h) Fun.id));
  ]

(* --- Expansions ----------------------------------------------------------- *)

let expansion_tests =
  [
    case "clique of a 2-pin net is one full-weight edge" (fun () ->
        let h = Hgraph.of_nets ~n:2 [ [ 0; 1 ] ] in
        let g = Expansion.clique ~scale:12 h in
        check_int "weight" 12 (Graph.edge_weight g 0 1));
    case "clique of a 3-pin net is a triangle at half weight" (fun () ->
        let h = Hgraph.of_nets ~n:3 [ [ 0; 1; 2 ] ] in
        let g = Expansion.clique ~scale:12 h in
        check_int "m" 3 (Graph.n_edges g);
        check_int "weight" 6 (Graph.edge_weight g 0 1));
    case "parallel net contributions merge" (fun () ->
        let h = Hgraph.of_nets ~n:2 [ [ 0; 1 ]; [ 0; 1 ] ] in
        let g = Expansion.clique ~scale:12 h in
        check_int "summed" 24 (Graph.edge_weight g 0 1));
    case "single-pin nets vanish in the clique expansion" (fun () ->
        let h = Hgraph.of_nets ~n:2 [ [ 0 ] ] in
        check_int "no edges" 0 (Graph.n_edges (Expansion.clique h)));
    case "star adds one hub per net" (fun () ->
        let h = sample () in
        let g, n = Expansion.star h in
        check_int "cells" 6 n;
        check_int "vertices" 10 (Graph.n_vertices g);
        check_int "edges = pins" 10 (Graph.n_edges g);
        check_int "hub degree = net size" 3 (Graph.degree g 6));
    case "star_cells_only restricts correctly" (fun () ->
        let h = sample () in
        let side = [| 0; 0; 0; 1; 1; 1; 0; 1; 0; 1 |] in
        Alcotest.(check (array int)) "cells" [| 0; 0; 0; 1; 1; 1 |]
          (Expansion.star_cells_only h side));
  ]

let expansion_properties =
  [
    qnetlist "clique cut of 2-pin-only netlists = scaled net cut" (fun (n, nets) ->
        (* restrict to pairs: then clique expansion is exact *)
        let pairs =
          List.filter_map
            (fun net ->
              match List.sort_uniq Int.compare net with
              | [ a; b ] -> Some [ a; b ]
              | _ -> None)
            nets
        in
        pairs = []
        ||
        let h = Hgraph.of_nets ~n pairs in
        let g = Expansion.clique ~scale:1 h in
        let rng = Rng.create ~seed:9 in
        let side = Array.init n (fun _ -> Rng.int rng 2) in
        Hgraph.cut_size h side
        = (let module B = Gbisect.Bisection in
           B.compute_cut g side));
    qnetlist "graph cut bounds the net cut from above (unit clique scale)"
      (fun (n, nets) ->
        (* every spanning net contributes at least one cut clique edge *)
        let h = Hgraph.of_nets ~n nets in
        let g = Expansion.clique ~scale:1 h in
        let rng = Rng.create ~seed:5 in
        let side = Array.init n (fun _ -> Rng.int rng 2) in
        Hgraph.cut_size h side <= Bisection.compute_cut g side);
  ]

(* --- HFM -------------------------------------------------------------------- *)

let random_sides rng n =
  let perm = Rng.permutation rng n in
  let side = Array.make n 1 in
  for i = 0 to (n / 2) - 1 do
    side.(perm.(i)) <- 0
  done;
  side

let hfm_tests =
  [
    case "pass invariants on the sample netlist" (fun () ->
        let h = sample () in
        let side = [| 0; 1; 0; 1; 0; 1 |] in
        let next, gain = one_pass h side in
        check_bool "gain >= 0" true (gain >= 0);
        check_int "cut decreases by gain" (Hgraph.cut_size h side - gain)
          (Hgraph.cut_size h next);
        let c0, c1 = Bisection.side_counts next in
        check_bool "balanced" true (abs (c0 - c1) <= 0));
    case "finds the zero-cut split of two disjoint clusters" (fun () ->
        let h =
          Hgraph.of_nets ~n:8
            [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 0; 3 ]; [ 4; 5; 6 ]; [ 5; 6; 7 ]; [ 4; 7 ] ]
        in
        let best = ref max_int in
        for seed = 1 to 5 do
          let _, stats = Hfm.run (Helpers.rng ~seed ()) h in
          best := min !best stats.Hfm.final_cut
        done;
        check_int "separates clusters" 0 !best);
    case "unbalanced input rejected" (fun () ->
        let h = sample () in
        Alcotest.check_raises "unbalanced"
          (Invalid_argument "Hfm: input bisection is not balanced") (fun () ->
            ignore (one_pass h [| 0; 0; 0; 0; 0; 1 |])));
    case "stats are coherent" (fun () ->
        let h = Random_netlist.generate (Helpers.rng ()) Random_netlist.default_params in
        let side, stats = Hfm.run (Helpers.rng ()) h in
        check_int "final cut" (Hgraph.cut_size h side) stats.Hfm.final_cut;
        check_bool "improves" true (stats.Hfm.final_cut <= stats.Hfm.initial_cut);
        check_int "gains sum"
          (stats.Hfm.initial_cut - stats.Hfm.final_cut)
          (List.fold_left ( + ) 0 stats.Hfm.pass_gains));
    case "beats or matches the planted block cut on clustered netlists" (fun () ->
        let p = Random_netlist.default_params in
        let wins = ref 0 in
        for seed = 1 to 5 do
          let rng = Helpers.rng ~seed () in
          let h = Random_netlist.generate rng p in
          let planted = Hgraph.cut_size h (Random_netlist.block_sides p) in
          let best = ref max_int in
          for _ = 1 to 2 do
            let _, stats = Hfm.run rng h in
            best := min !best stats.Hfm.final_cut
          done;
          if !best <= planted then incr wins
        done;
        check_bool (Printf.sprintf "wins %d/5" !wins) true (!wins >= 4));
  ]

let hfm_properties =
  [
    qnetlist ~count:200 "hfm pass: gain accounting and exact balance" (fun (n, nets) ->
        let h = Hgraph.of_nets ~n nets in
        let rng = Rng.create ~seed:(n * 31) in
        let side = random_sides rng n in
        let next, gain = one_pass h side in
        gain >= 0
        && Hgraph.cut_size h next = Hgraph.cut_size h side - gain
        && Bisection.is_count_balanced next);
    qnetlist ~count:100 "hfm never beats brute force on small instances"
      (fun (n, nets) ->
        n > 12
        ||
        let h = Hgraph.of_nets ~n nets in
        (* brute-force exact net cut over balanced splits *)
        let best = ref max_int in
        let side = Array.make n 0 in
        let rec enum v c0 =
          if v = n then begin
            if abs ((2 * c0) - n) <= 1 then best := min !best (Hgraph.cut_size h side)
          end
          else begin
            side.(v) <- 0;
            enum (v + 1) (c0 + 1);
            side.(v) <- 1;
            enum (v + 1) c0
          end
        in
        enum 0 0;
        let _, stats = Hfm.run (Rng.create ~seed:(n * 7)) h in
        stats.Hfm.final_cut >= !best);
  ]

(* --- Random netlist ----------------------------------------------------------- *)

let netlist_model_tests =
  [
    case "sizes follow the parameters" (fun () ->
        let p = Random_netlist.default_params in
        let h = Random_netlist.generate (Helpers.rng ()) p in
        check_hgraph h;
        check_int "cells" (p.Random_netlist.blocks * p.Random_netlist.cells_per_block)
          (Hgraph.n_vertices h);
        check_bool "has nets" true (Hgraph.n_nets h > 0);
        check_bool "net sizes >= 2" true
          (List.exists (fun e -> Hgraph.net_size h e >= 2) (List.init (Hgraph.n_nets h) Fun.id)));
    case "block split cuts only global nets" (fun () ->
        let p = Random_netlist.default_params in
        let h = Random_netlist.generate (Helpers.rng ()) p in
        let cut = Hgraph.cut_size h (Random_netlist.block_sides p) in
        check_bool
          (Printf.sprintf "cut %d <= global nets %d" cut p.Random_netlist.global_nets)
          true
          (cut <= p.Random_netlist.global_nets));
    case "parameter validation" (fun () ->
        let bad p = Alcotest.check_raises "bad" (Invalid_argument "Random_netlist: blocks >= 2")
            (fun () -> Random_netlist.validate_params p)
        in
        bad { Random_netlist.default_params with Random_netlist.blocks = 1 });
    case "block_of_cell is consistent with block_sides" (fun () ->
        let p = Random_netlist.default_params in
        let sides = Random_netlist.block_sides p in
        Array.iteri
          (fun cell s ->
            let expected =
              if Random_netlist.block_of_cell p cell < p.Random_netlist.blocks / 2 then 0
              else 1
            in
            check_int "side" expected s)
          sides);
  ]

(* --- Hcoarsen: compaction for netlists ---------------------------------------- *)

module Hcoarsen = Gbisect.Hcoarsen

let hcoarsen_tests =
  [
    case "matching is an involution that follows nets" (fun () ->
        let h = Random_netlist.generate (Helpers.rng ()) Random_netlist.default_params in
        let mate = Hcoarsen.match_cells (Helpers.rng ()) h in
        Array.iteri
          (fun v u ->
            if u >= 0 then begin
              check_int "involution" v mate.(u);
              (* partners share a net *)
              let share = ref false in
              Hgraph.iter_vertex_nets h v (fun e ->
                  Hgraph.iter_net h e (fun w -> if w = u then share := true));
              check_bool "share a net" true !share
            end)
          mate);
    case "contract halves two-pin chains" (fun () ->
        (* a path-like netlist of 2-pin nets *)
        let h = Hgraph.of_nets ~n:6 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 5 ] ] in
        let c = Hcoarsen.contract h (Hcoarsen.match_cells (Helpers.rng ()) h) in
        check_hgraph c.Hcoarsen.coarse;
        check_bool "shrank" true (Hgraph.n_vertices c.Hcoarsen.coarse < 6));
    case "contract rejects bad mates" (fun () ->
        let h = sample () in
        Alcotest.check_raises "not involution"
          (Invalid_argument "Hcoarsen.contract: mate is not an involution") (fun () ->
            ignore (Hcoarsen.contract h [| 1; 2; 0; -1; -1; -1 |])));
    case "rebalance yields exact balance" (fun () ->
        let h = sample () in
        let side = Hcoarsen.rebalance h [| 0; 0; 0; 0; 0; 0 |] in
        Alcotest.(check (pair int int)) "3/3" (3, 3) (Bisection.side_counts side));
    case "chfm beats flat HFM or ties on clustered netlists" (fun () ->
        let p = { Random_netlist.default_params with Random_netlist.blocks = 8 } in
        let flat_sum = ref 0 and chfm_sum = ref 0 in
        for seed = 1 to 5 do
          let rng = Helpers.rng ~seed () in
          let h = Random_netlist.generate rng p in
          let _, fs = Hfm.run (Helpers.rng ~seed:(100 + seed) ()) h in
          let _, cs = Hcoarsen.bisect (Helpers.rng ~seed:(100 + seed) ()) h in
          flat_sum := !flat_sum + fs.Hfm.final_cut;
          chfm_sum := !chfm_sum + cs.Hcoarsen.final_cut
        done;
        check_bool
          (Printf.sprintf "CHFM %d <= HFM %d + slack" !chfm_sum !flat_sum)
          true
          (!chfm_sum <= !flat_sum + 5));
  ]

let hcoarsen_properties =
  [
    qnetlist ~count:150 "cut correspondence through hypergraph contraction"
      (fun (n, nets) ->
        let h = Hgraph.of_nets ~n nets in
        let rng = Rng.create ~seed:(n * 13) in
        let c = Hcoarsen.contract h (Hcoarsen.match_cells rng h) in
        let coarse_side =
          Array.init (Hgraph.n_vertices c.Hcoarsen.coarse) (fun _ -> Rng.int rng 2)
        in
        Hgraph.cut_size c.Hcoarsen.coarse coarse_side
        = Hgraph.cut_size h (Hcoarsen.project c coarse_side));
    qnetlist ~count:100 "chfm returns balanced assignments" (fun (n, nets) ->
        let h = Hgraph.of_nets ~n nets in
        let side, _ = Hcoarsen.bisect (Rng.create ~seed:(n * 3)) h in
        Bisection.is_count_balanced side);
    qnetlist ~count:100 "rebalance is exact and only improves imbalance"
      (fun (n, nets) ->
        let h = Hgraph.of_nets ~n nets in
        let rng = Rng.create ~seed:(n * 17) in
        let side = Array.init n (fun _ -> Rng.int rng 2) in
        Bisection.is_count_balanced (Hcoarsen.rebalance h side));
  ]

(* --- Placement ------------------------------------------------------------------ *)

module Placement = Gbisect.Placement

let placement_tests =
  [
    case "1x1 grid puts everything in one slot" (fun () ->
        let h = sample () in
        let p = Placement.place ~rows:1 ~cols:1 ~solver:Placement.hfm_solver (Helpers.rng ()) h in
        Placement.validate h p;
        Array.iter (fun s -> Alcotest.(check (pair int int)) "slot" (0, 0) s) p.Placement.slot);
    case "populations balance across slots" (fun () ->
        let h = Random_netlist.generate (Helpers.rng ()) Random_netlist.default_params in
        let p = Placement.place ~rows:4 ~cols:4 ~solver:Placement.hfm_solver (Helpers.rng ()) h in
        Placement.validate h p;
        check_int "rows" 4 p.Placement.rows;
        check_int "cols" 4 p.Placement.cols);
    case "hpwl of a single-slot placement is zero" (fun () ->
        let h = sample () in
        let p = Placement.place ~rows:1 ~cols:1 ~solver:Placement.random_solver (Helpers.rng ()) h in
        check_int "zero wirelength" 0 (Placement.hpwl h p));
    case "min-cut placement beats random placement on clustered netlists" (fun () ->
        let h = Random_netlist.generate (Helpers.rng ()) Random_netlist.default_params in
        let rng = Helpers.rng () in
        let random = Placement.place ~rows:4 ~cols:8 ~solver:Placement.random_solver rng h in
        let mincut = Placement.place ~rows:4 ~cols:8 ~solver:Placement.hfm_solver rng h in
        Placement.validate h random;
        Placement.validate h mincut;
        let wl_r = Placement.hpwl h random and wl_m = Placement.hpwl h mincut in
        check_bool (Printf.sprintf "mincut %d << random %d" wl_m wl_r) true (2 * wl_m < wl_r));
    case "chfm solver also places validly" (fun () ->
        let h = Random_netlist.generate (Helpers.rng ()) Random_netlist.default_params in
        let p = Placement.place ~rows:2 ~cols:4 ~solver:Placement.chfm_solver (Helpers.rng ()) h in
        Placement.validate h p);
    case "invalid grids rejected" (fun () ->
        let h = sample () in
        Alcotest.check_raises "not a power of two"
          (Invalid_argument "Placement.place: rows and cols must be powers of two")
          (fun () ->
            ignore (Placement.place ~rows:3 ~cols:2 ~solver:Placement.hfm_solver (Helpers.rng ()) h));
        Alcotest.check_raises "too many slots"
          (Invalid_argument "Placement.place: more slots than cells") (fun () ->
            ignore
              (Placement.place ~rows:8 ~cols:8 ~solver:Placement.hfm_solver (Helpers.rng ()) h)));
    case "hypergraph induced keeps restrictions with >= 2 pins" (fun () ->
        let h = sample () in
        (* keep cells 0,1,2: nets {0,1,2} keeps 3 pins; {2,3} -> 1 pin drops;
           {3,4,5} -> 0; {0,5} -> 1 drops. *)
        let sub = Hgraph.induced h [| 0; 1; 2 |] in
        check_hgraph sub;
        check_int "one net" 1 (Hgraph.n_nets sub);
        check_int "three pins" 3 (Hgraph.n_pins sub));
  ]

let () =
  Alcotest.run "hyper"
    [
      ("placement", placement_tests);
      ("hcoarsen", hcoarsen_tests);
      ("hcoarsen properties", hcoarsen_properties);
      ("hgraph", hgraph_tests);
      ("hgraph properties", hgraph_properties);
      ("expansion", expansion_tests);
      ("expansion properties", expansion_properties);
      ("hfm", hfm_tests);
      ("hfm properties", hfm_properties);
      ("random netlist", netlist_model_tests);
    ]
