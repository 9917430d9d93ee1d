(* Tests for the graph substrate: CSR representation, builder, classic
   constructors, components, IO, matchings and contraction. *)

module Graph = Gbisect.Graph
module Builder = Gbisect.Builder
module Classic = Gbisect.Classic
module Traverse = Gbisect.Traverse
module Gio = Gbisect.Graph_io
module Matching = Gbisect.Matching
module Contraction = Gbisect.Contraction
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- CSR -------------------------------------------------------------- *)

let triangle () = Graph.of_unweighted_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]

(* [u]'s adjacency as [(v, w)] pairs in iteration order. *)
let adjacency g u =
  Array.of_list (List.rev (Graph.fold_neighbors g u ~init:[] ~f:(fun acc v w -> (v, w) :: acc)))

let connected g = snd (Traverse.components g) = 1
let no_matching g = Matching.{ mate = Array.make (Graph.n_vertices g) (-1) }

(* METIS text for the parser tests, from the codec reference's writer. *)
let to_metis = Codec_reference.Gio.to_metis_string

let csr_tests =
  [
    case "empty graph" (fun () ->
        let g = Graph.empty 5 in
        Helpers.check_graph_ok g;
        check_int "n" 5 (Graph.n_vertices g);
        check_int "m" 0 (Graph.n_edges g);
        check_int "degree" 0 (Graph.degree g 3));
    case "triangle basics" (fun () ->
        let g = triangle () in
        Helpers.check_graph_ok g;
        check_int "m" 3 (Graph.n_edges g);
        check_int "degree" 2 (Graph.degree g 1);
        check_bool "edge 0-1" true (Graph.mem_edge g 0 1);
        check_bool "edge 1-0 (symmetric)" true (Graph.mem_edge g 1 0);
        check_int "weight" 1 (Graph.edge_weight g 0 2);
        check_int "missing weight" 0 (Graph.edge_weight g 0 0));
    case "parallel edges merge with summed weights" (fun () ->
        let g = Graph.of_edges ~n:2 [ (0, 1, 2); (1, 0, 3) ] in
        check_int "m" 1 (Graph.n_edges g);
        check_int "merged weight" 5 (Graph.edge_weight g 0 1);
        check_int "total edge weight" 5 (Graph.total_edge_weight g));
    case "self loops are rejected" (fun () ->
        Alcotest.check_raises "loop" (Invalid_argument "Csr.of_edges: self-loop")
          (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1, 1) ])));
    case "out-of-range endpoints are rejected" (fun () ->
        Alcotest.check_raises "range"
          (Invalid_argument "Csr.of_edges: endpoint out of range") (fun () ->
            ignore (Graph.of_edges ~n:3 [ (0, 3, 1) ])));
    case "non-positive weights are rejected" (fun () ->
        Alcotest.check_raises "weight"
          (Invalid_argument "Csr.of_edges: non-positive edge weight") (fun () ->
            ignore (Graph.of_edges ~n:3 [ (0, 1, 0) ])));
    case "vertex weights flow through" (fun () ->
        let g = Graph.of_edges ~vertex_weights:[| 2; 3; 4 |] ~n:3 [ (0, 1, 1) ] in
        check_int "vw" 3 (Graph.vertex_weight g 1);
        check_int "total" 9 (Graph.total_vertex_weight g);
        check_bool "not unit" false (Graph.is_unit_weighted g));
    case "iter_edges visits each edge once with u < v" (fun () ->
        let g = triangle () in
        let count = ref 0 in
        Graph.iter_edges g (fun u v _ ->
            incr count;
            check_bool "ordered" true (u < v));
        check_int "3 edges" 3 !count);
    case "neighbors are sorted" (fun () ->
        let g = Graph.of_unweighted_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
        let ns = Array.map fst (adjacency g 2) in
        Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] ns);
    case "fold_neighbors accumulates weighted degree" (fun () ->
        let g = Graph.of_edges ~n:3 [ (0, 1, 2); (0, 2, 5) ] in
        let sum = Graph.fold_neighbors g 0 ~init:0 ~f:(fun acc _ w -> acc + w) in
        check_int "weighted degree" 7 sum;
        check_int "matches weighted_degree" (Graph.weighted_degree g 0) sum);
    case "average degree of a star" (fun () ->
        Alcotest.(check (float 1e-9)) "avg" 1.6 (Graph.average_degree (Classic.star 4)));
    case "equal distinguishes graphs" (fun () ->
        check_bool "same" true (Graph.equal (triangle ()) (triangle ()));
        check_bool "different" false
          (Graph.equal (triangle ()) (Classic.path 3)));
  ]

let csr_property_tests =
  [
    Helpers.qtest "check passes on generated graphs" (Helpers.gen_graph ())
      (fun g ->
        Graph.check g;
        true);
    Helpers.qtest "edges round-trip through of_edges"
      (Helpers.gen_weighted_graph ())
      (fun g ->
        let rebuilt =
          Graph.of_edges
            ~vertex_weights:
              (Array.init (Graph.n_vertices g) (Graph.vertex_weight g))
            ~n:(Graph.n_vertices g) (Graph.edges g)
        in
        Graph.equal g rebuilt);
    Helpers.qtest "handshake: sum of degrees = 2m" (Helpers.gen_graph ()) (fun g ->
        let sum = ref 0 in
        for v = 0 to Graph.n_vertices g - 1 do
          sum := !sum + Graph.degree g v
        done;
        !sum = 2 * Graph.n_edges g);
    Helpers.qtest "mem_edge agrees with the edge list" (Helpers.gen_graph ())
      (fun g ->
        List.for_all (fun (u, v, _) -> Graph.mem_edge g u v && Graph.mem_edge g v u)
          (Graph.edges g));
  ]

(* --- Builder ----------------------------------------------------------- *)

let builder_tests =
  [
    case "builds what was added" (fun () ->
        let b = Builder.create 4 in
        Builder.add_edge b 0 1;
        Builder.add_edge b 2 3 ~weight:4;
        let g = Builder.build b in
        Helpers.check_graph_ok g;
        check_int "m" 2 (Graph.n_edges g);
        check_int "weight kept" 4 (Graph.edge_weight g 2 3));
    case "duplicate adds sum weights" (fun () ->
        let b = Builder.create 3 in
        Builder.add_edge b 0 1;
        Builder.add_edge b 1 0 ~weight:2;
        let g = Builder.build b in
        check_int "merged" 3 (Graph.edge_weight g 0 1));
    case "add_edge_if_absent reports truthfully" (fun () ->
        let b = Builder.create 3 in
        check_bool "first" true (Builder.add_edge_if_absent b 0 1);
        check_bool "second" false (Builder.add_edge_if_absent b 1 0);
        check_bool "self-loop" false (Builder.add_edge_if_absent b 2 2);
        check_int "one edge" 1 (Graph.n_edges (Builder.build b)));
    case "mem_edge tracks state" (fun () ->
        let b = Builder.create 3 in
        check_bool "absent" false (Builder.mem_edge b 0 1);
        Builder.add_edge b 0 1;
        check_bool "present" true (Builder.mem_edge b 0 1));
    case "rejects self loops and bad weights" (fun () ->
        let b = Builder.create 3 in
        Alcotest.check_raises "loop" (Invalid_argument "Builder.add_edge: self-loop")
          (fun () -> Builder.add_edge b 1 1);
        Alcotest.check_raises "weight"
          (Invalid_argument "Builder.add_edge: non-positive weight") (fun () ->
            Builder.add_edge b 0 1 ~weight:0));
    case "builder is reusable after build" (fun () ->
        let b = Builder.create 3 in
        Builder.add_edge b 0 1;
        let g1 = Builder.build b in
        Builder.add_edge b 1 2;
        let g2 = Builder.build b in
        check_int "g1 unchanged" 1 (Graph.n_edges g1);
        check_int "g2 extended" 2 (Graph.n_edges g2));
  ]

(* --- Classic constructors --------------------------------------------- *)

let classic_tests =
  [
    case "path: sizes and endpoints" (fun () ->
        let g = Classic.path 6 in
        Helpers.check_graph_ok g;
        check_int "m" 5 (Graph.n_edges g);
        check_int "end degree" 1 (Graph.degree g 0);
        check_int "mid degree" 2 (Graph.degree g 3));
    case "path of one vertex" (fun () ->
        check_int "no edges" 0 (Graph.n_edges (Classic.path 1)));
    case "cycle: 2-regular, connected, n edges" (fun () ->
        let g = Classic.cycle 9 in
        check_int "m" 9 (Graph.n_edges g);
        check_bool "regular" true (Helpers.regular g 2);
        check_bool "connected" true (connected g));
    case "complete: C(n,2) edges, (n-1)-regular" (fun () ->
        let g = Classic.complete 7 in
        check_int "m" 21 (Graph.n_edges g);
        check_int "degree" 6 (Graph.degree g 0));
    case "star: a centre and n leaves" (fun () ->
        check_int "star edges" 6 (Graph.n_edges (Classic.star 6)));
    case "grid: edge count rows*(cols-1)+cols*(rows-1)" (fun () ->
        let g = Classic.grid ~rows:4 ~cols:7 in
        Helpers.check_graph_ok g;
        check_int "m" ((4 * 6) + (7 * 3)) (Graph.n_edges g);
        check_bool "connected" true (connected g));
    case "grid 1xN is a path" (fun () ->
        check_bool "same" true (Graph.equal (Classic.grid ~rows:1 ~cols:5) (Classic.path 5)));
    case "ladder: 3k-2 edges, max degree 3" (fun () ->
        let g = Classic.ladder 10 in
        check_int "m" 28 (Graph.n_edges g);
        check_int "max degree" 3
          (List.fold_left max 0 (List.init (Graph.n_vertices g) (Graph.degree g)));
        check_bool "connected" true (connected g));
    case "circular ladder: 3-regular, 3k edges" (fun () ->
        let g = Classic.circular_ladder 8 in
        check_int "m" 24 (Graph.n_edges g);
        check_bool "3-regular" true (Helpers.regular g 3));
    case "binary tree: 2^(d+1)-1 vertices, n-1 edges" (fun () ->
        let g = Classic.binary_tree ~depth:4 in
        check_int "n" 31 (Graph.n_vertices g);
        check_int "m" 30 (Graph.n_edges g);
        check_bool "connected" true (connected g);
        check_int "root degree" 2 (Graph.degree g 0);
        check_int "leaf degree" 1 (Graph.degree g 30));
    case "kary tree arity 3" (fun () ->
        let g = Classic.kary_tree ~arity:3 ~depth:2 in
        check_int "n" 13 (Graph.n_vertices g);
        check_int "m" 12 (Graph.n_edges g));
    case "hypercube: d-regular, d*2^(d-1) edges, width 2^(d-1)" (fun () ->
        let g = Classic.hypercube 4 in
        check_int "n" 16 (Graph.n_vertices g);
        check_int "m" 32 (Graph.n_edges g);
        check_bool "4-regular" true (Helpers.regular g 4);
        check_int "exact width" 8 (Gbisect.Exact.bisection_width g));
    case "disjoint cycles: 2-regular with `count` components" (fun () ->
        let g = Classic.disjoint_cycles ~count:4 ~len:5 in
        check_int "n" 20 (Graph.n_vertices g);
        check_bool "2-regular" true (Helpers.regular g 2);
        check_int "components" 4 (snd (Traverse.components g)));
    case "caterpillar: tree with spine * (legs+1) vertices" (fun () ->
        let g = Classic.caterpillar ~spine:4 ~legs:3 in
        check_int "n" 16 (Graph.n_vertices g);
        check_int "m" 15 (Graph.n_edges g);
        check_bool "connected" true (connected g);
        check_int "exact width" 1 (Gbisect.Exact.bisection_width g));
    case "constructors reject bad sizes" (fun () ->
        List.iter
          (fun (name, f) ->
            Alcotest.check_raises name (Invalid_argument ("Classic." ^ name)) (fun () ->
                ignore (f ())))
          [
            ("path", fun () -> Classic.path 0);
            ("cycle", fun () -> Classic.cycle 2);
            ("grid", fun () -> Classic.grid ~rows:0 ~cols:3);
            ("ladder", fun () -> Classic.ladder 0);
            ("circular_ladder", fun () -> Classic.circular_ladder 2);
            ("hypercube", fun () -> Classic.hypercube (-1));
          ]);
  ]

(* --- Components ----------------------------------------------------------- *)

let traverse_tests =
  [
    case "components of disjoint cycles" (fun () ->
        let g = Classic.disjoint_cycles ~count:3 ~len:4 in
        let label, count = Traverse.components g in
        check_int "count" 3 count;
        check_int "vertex 0 label" 0 label.(0);
        check_int "vertex 5 label" 1 label.(5));
  ]

(* --- IO ------------------------------------------------------------------ *)

let io_tests =
  [
    case "edge-list round trip (unweighted)" (fun () ->
        let g = Classic.circular_ladder 5 in
        let s = Gio.to_edge_list_string g in
        check_bool "round trip" true (Graph.equal g (Gio.of_edge_list_string s)));
    case "edge-list round trip (weighted)" (fun () ->
        let g = Graph.of_edges ~n:4 [ (0, 1, 3); (1, 2, 1); (2, 3, 9) ] in
        check_bool "round trip" true
          (Graph.equal g (Gio.of_edge_list_string (Gio.to_edge_list_string g))));
    case "edge-list accepts comments and blanks" (fun () ->
        let s = "# a comment\n3 2\n\n0 1\n1 2  # trailing\n" in
        let g = Gio.of_edge_list_string s in
        check_int "n" 3 (Graph.n_vertices g);
        check_int "m" 2 (Graph.n_edges g));
    case "edge-list accepts CRLF line endings" (fun () ->
        (* a file written on Windows: every line ends "\r\n" *)
        let s = "3 2\r\n0 1\r\n1 2\r\n" in
        let g = Gio.of_edge_list_string s in
        check_int "n" 3 (Graph.n_vertices g);
        check_int "m" 2 (Graph.n_edges g);
        check_bool "same as LF" true
          (Graph.equal g (Gio.of_edge_list_string "3 2\n0 1\n1 2\n")));
    case "edge-list rejects malformed input" (fun () ->
        List.iter
          (fun s ->
            match Gio.of_edge_list_string s with
            | exception Failure _ -> ()
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "accepted %S" s)
          [ ""; "x"; "2 1\n0"; "2 1\n0 1\n0 1"; "2 2\n0 1"; "2 1\n0 5" ]);
    case "file round trip" (fun () ->
        let g = Classic.grid ~rows:3 ~cols:4 in
        let path = Filename.temp_file "gbisect" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                output_string oc (Gio.to_edge_list_string g));
            check_bool "same" true (Graph.equal g (Gio.read_edge_list path))));
    case "metis parses unweighted" (fun () ->
        (* Triangle plus a pendant, 1-based adjacency lines. *)
        let s = "4 4\n2 3\n1 3\n1 2 4\n3\n" in
        let g = Gio.of_metis_string s in
        check_int "n" 4 (Graph.n_vertices g);
        check_int "m" 4 (Graph.n_edges g);
        check_bool "pendant edge" true (Graph.mem_edge g 2 3));
    case "metis parses edge weights" (fun () ->
        let s = "3 2 1\n2 5\n1 5 3 7\n2 7\n" in
        let g = Gio.of_metis_string s in
        check_int "w(0,1)" 5 (Graph.edge_weight g 0 1);
        check_int "w(1,2)" 7 (Graph.edge_weight g 1 2));
    case "metis skips % comments" (fun () ->
        let s = "% header comment\n2 1\n2\n1\n" in
        check_int "m" 1 (Graph.n_edges (Gio.of_metis_string s)));
    case "metis skips # comments too" (fun () ->
        let s = "# emitted by some exporters\n2 1\n2\n1\n" in
        check_int "m" 1 (Graph.n_edges (Gio.of_metis_string s)));
    case "metis accepts CRLF line endings" (fun () ->
        let s = "% comment\r\n4 4\r\n2 3\r\n1 3\r\n1 2 4\r\n3\r\n" in
        let g = Gio.of_metis_string s in
        check_int "n" 4 (Graph.n_vertices g);
        check_int "m" 4 (Graph.n_edges g);
        check_bool "same as LF" true
          (Graph.equal g (Gio.of_metis_string "4 4\n2 3\n1 3\n1 2 4\n3\n")));
    case "metis rejects bad headers and counts" (fun () ->
        List.iter
          (fun s ->
            match Gio.of_metis_string s with
            | exception Failure _ -> ()
            | _ -> Alcotest.failf "accepted %S" s)
          [ ""; "2 1 9\n2\n1\n"; "4 1\n2\n1\n"; "2 5\n2\n1\n"; "2 1\n2\n1\nextra\n" ]);
    Helpers.qtest ~count:100 "edge-list round-trips any graph"
      (Helpers.gen_graph ())
      (fun g -> Graph.equal g (Gio.of_edge_list_string (Gio.to_edge_list_string g)));
    Helpers.qtest ~count:100 "metis round-trips any unit-vertex-weight graph"
      (Helpers.gen_graph ())
      (fun g -> Graph.equal g (Gio.of_metis_string (to_metis g)));
    Helpers.qtest ~count:100 "parsers are line-ending agnostic"
      (Helpers.gen_graph ())
      (fun g ->
        let crlf s =
          String.concat "\r\n" (String.split_on_char '\n' s)
        in
        Graph.equal g (Gio.of_edge_list_string (crlf (Gio.to_edge_list_string g)))
        && Graph.equal g (Gio.of_metis_string (crlf (to_metis g))));
    Helpers.qtest_pair ~count:200 "corrupted input never escapes Failure"
      QCheck2.Gen.(pair (Helpers.gen_graph ()) (int_range 0 1_000_000))
      (fun (g, i) -> Printf.sprintf "%s @ %d" (Helpers.graph_print g) i)
      (fun (g, i) ->
        (* overwrite one byte of a valid file: the parser must either
           still produce a graph or fail with its documented exceptions,
           never crash some other way *)
        let corrupt s =
          let b = Bytes.of_string s in
          Bytes.set b (i mod Bytes.length b) 'x';
          Bytes.to_string b
        in
        let survives parse s =
          match parse s with
          | (_ : Graph.t) -> true
          | exception Failure _ -> true
          | exception Invalid_argument _ -> true
        in
        survives Gio.of_edge_list_string (corrupt (Gio.to_edge_list_string g))
        && survives Gio.of_metis_string (corrupt (to_metis g)));
    case "dot output mentions every edge" (fun () ->
        let g = triangle () in
        let dot = Gio.to_dot g in
        check_bool "has 0 -- 1" true
          (Helpers.contains dot "0 -- 1"));
    case "dot highlights the cut" (fun () ->
        let g = Classic.path 4 in
        let dot = Gio.to_dot ~highlight_cut:[| 0; 0; 1; 1 |] g in
        check_bool "bold cut edge" true (Helpers.contains dot "style=bold");
        check_bool "colours sides" true (Helpers.contains dot "lightblue"));
  ]

(* --- Matching -------------------------------------------------------------- *)

let matching_tests =
  [
    case "empty matching is valid, maximal only without edges" (fun () ->
        let g = Classic.path 4 in
        let m = no_matching g in
        check_bool "valid" true (Matching.is_valid g m);
        check_bool "not maximal" false (Matching.is_maximal g m);
        check_bool "maximal on empty graph" true
          (Matching.is_maximal (Graph.empty 3) (no_matching (Graph.empty 3))));
    case "random_maximal on a single edge takes it" (fun () ->
        let g = Classic.path 2 in
        let m = Matching.random_maximal (Helpers.rng ()) g in
        check_int "size" 1 (Matching.size m);
        check_bool "both matched" true (m.Matching.mate.(0) = 1 && m.Matching.mate.(1) = 0));
    case "complete graph matching is perfect" (fun () ->
        let g = Classic.complete 10 in
        let m = Matching.random_maximal (Helpers.rng ()) g in
        check_int "perfect" 5 (Matching.size m));
    case "star matching has exactly one edge" (fun () ->
        let g = Classic.star 7 in
        let m = Matching.random_maximal (Helpers.rng ()) g in
        check_int "one edge" 1 (Matching.size m));
    case "heavy_edge avoids the lightest edge of a triangle" (fun () ->
        (* Triangle with w(0,1)=1, w(0,2)=10, w(1,2)=5: whichever vertex
           is visited first, its heaviest free edge wins, so the light
           edge (0,1) can never be chosen. *)
        let g = Graph.of_edges ~n:3 [ (0, 1, 1); (0, 2, 10); (1, 2, 5) ] in
        for seed = 1 to 20 do
          let m = Matching.heavy_edge (Helpers.rng ~seed ()) g in
          check_int "one pair" 1 (Matching.size m);
          check_bool "light edge avoided" false (List.mem (0, 1) (Helpers.matched_pairs m))
        done);
  ]

let matching_property_tests =
  [
    Helpers.qtest "random_maximal is a valid maximal matching"
      (Helpers.gen_graph ~max_n:30 ()) (fun g ->
        let m = Matching.random_maximal (Helpers.rng ()) g in
        Matching.is_valid g m && Matching.is_maximal g m);
    Helpers.qtest "heavy_edge is a valid maximal matching"
      (Helpers.gen_weighted_graph ()) (fun g ->
        let m = Matching.heavy_edge (Helpers.rng ()) g in
        Matching.is_valid g m && Matching.is_maximal g m);
    Helpers.qtest "mate is an involution" (Helpers.gen_graph ~max_n:30 ()) (fun g ->
        let m = Matching.random_maximal (Helpers.rng ()) g in
        Array.for_all Fun.id
          (Array.mapi
             (fun u v -> v < 0 || m.Matching.mate.(v) = u)
             m.Matching.mate));
  ]

(* Multigraph inputs: the edge list deliberately repeats edges with
   different weights; the CSR builder merges them (weights summed) and
   both matching policies must keep every invariant on the merged
   graph. Generated through the fuzz corpus so the cases match what
   `gbisect fuzz` throws at the library. *)
let gen_fuzzed_multigraph =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let r = Gbisect.Rng.create ~seed in
  let n = 2 + Gbisect.Rng.int r 11 in
  let edges = ref [] in
  for _ = 1 to Gbisect.Rng.int r (3 * n) + 1 do
    let u = Gbisect.Rng.int r n and v = Gbisect.Rng.int r n in
    if u <> v then begin
      let u, v = if u < v then (u, v) else (v, u) in
      edges := (u, v, 1 + Gbisect.Rng.int r 4) :: !edges;
      if Gbisect.Rng.bernoulli r 0.5 then
        edges := (u, v, 1 + Gbisect.Rng.int r 4) :: !edges
    end
  done;
  return (Graph.of_edges ~n !edges)

let matching_consistent g (m : Matching.t) =
  (* mate/pairs consistency: the pairs read off the mate array are
     disjoint real edges, cover exactly its non-negative entries, and
     number [Matching.size]. *)
  let n = Graph.n_vertices g in
  let pairs = Helpers.matched_pairs m in
  let seen = Array.make n false in
  List.for_all
    (fun (u, v) ->
      let fresh = (not seen.(u)) && not seen.(v) in
      seen.(u) <- true;
      seen.(v) <- true;
      fresh && Graph.mem_edge g u v && m.Matching.mate.(v) = u)
    pairs
  && Array.for_all Fun.id
       (Array.init n (fun v -> seen.(v) = (m.Matching.mate.(v) >= 0)))
  && List.length pairs = Matching.size m

let matching_multigraph_tests =
  [
    Helpers.qtest "random_maximal: mate/pairs consistent on multigraphs"
      gen_fuzzed_multigraph (fun g ->
        matching_consistent g (Matching.random_maximal (Helpers.rng ()) g));
    Helpers.qtest "random_maximal: maximal and disjoint on multigraphs"
      gen_fuzzed_multigraph (fun g ->
        let m = Matching.random_maximal (Helpers.rng ()) g in
        Matching.is_valid g m && Matching.is_maximal g m);
    Helpers.qtest "heavy_edge: mate/pairs consistent on multigraphs"
      gen_fuzzed_multigraph (fun g ->
        matching_consistent g (Matching.heavy_edge (Helpers.rng ()) g));
    Helpers.qtest "heavy_edge: maximal and disjoint on multigraphs"
      gen_fuzzed_multigraph (fun g ->
        let m = Matching.heavy_edge (Helpers.rng ()) g in
        Matching.is_valid g m && Matching.is_maximal g m);
  ]

(* --- Contraction ------------------------------------------------------------ *)

let contraction_tests =
  [
    case "contracting one edge of a path" (fun () ->
        let g = Classic.path 3 in
        (* Match edge (0,1): coarse graph has 2 vertices, 1 edge. *)
        let m = Matching.{ mate = [| 1; 0; -1 |] } in
        let c = Contraction.contract g m in
        check_int "coarse n" 2 (Graph.n_vertices c.Contraction.coarse);
        check_int "coarse m" 1 (Graph.n_edges c.Contraction.coarse);
        check_int "merged vertex weight" 2 (Graph.vertex_weight c.Contraction.coarse 0);
        check_int "fine 0 -> coarse 0" 0 c.Contraction.fine_to_coarse.(0);
        check_int "fine 1 -> coarse 0" 0 c.Contraction.fine_to_coarse.(1));
    case "parallel edges merge during contraction" (fun () ->
        (* Square 0-1-2-3-0; contract (0,1) and (2,3): the two coarse
           vertices are joined by two fine edges -> one weight-2 edge. *)
        let g = Classic.cycle 4 in
        let m = Matching.{ mate = [| 1; 0; 3; 2 |] } in
        let c = Contraction.contract g m in
        check_int "coarse n" 2 (Graph.n_vertices c.Contraction.coarse);
        check_int "one merged edge" 1 (Graph.n_edges c.Contraction.coarse);
        check_int "weight 2" 2 (Graph.edge_weight c.Contraction.coarse 0 1));
    case "empty matching contraction is the identity" (fun () ->
        let g = Classic.circular_ladder 5 in
        let c = Contraction.contract g (no_matching g) in
        check_bool "same graph" true (Graph.equal g c.Contraction.coarse));
    case "project_to_fine inherits values" (fun () ->
        let g = Classic.path 4 in
        let m = Matching.{ mate = [| 1; 0; 3; 2 |] } in
        let c = Contraction.contract g m in
        Alcotest.(check (array int)) "projection" [| 5; 5; 9; 9 |]
          (Contraction.project_to_fine c [| 5; 9 |]));
  ]

let contraction_property_tests =
  [
    Helpers.qtest "coarse totals: vertex weight preserved, edges may merge"
      (Helpers.gen_graph ~max_n:30 ()) (fun g ->
        let m = Matching.random_maximal (Helpers.rng ()) g in
        let c = Contraction.contract g m in
        let coarse = c.Contraction.coarse in
        Graph.check coarse;
        Graph.total_vertex_weight coarse = Graph.total_vertex_weight g
        && Graph.total_edge_weight coarse
           = Graph.total_edge_weight g
             - List.fold_left
                 (fun acc (u, v) -> acc + Graph.edge_weight g u v)
                 0 (Helpers.matched_pairs m));
    Helpers.qtest "cut correspondence: coarse cut = projected fine cut"
      (Helpers.gen_graph ~max_n:30 ()) (fun g ->
        let r = Helpers.rng () in
        let m = Matching.random_maximal r g in
        let c = Contraction.contract g m in
        let coarse = c.Contraction.coarse in
        let coarse_side =
          Array.init (Graph.n_vertices coarse) (fun _ -> Rng.int r 2)
        in
        let fine_side = Contraction.project_to_fine c coarse_side in
        Gbisect.Bisection.compute_cut coarse coarse_side
        = Gbisect.Bisection.compute_cut g fine_side);
    Helpers.qtest "average degree does not drop under contraction"
      (Helpers.gen_graph ~min_n:6 ~max_n:30 ~p:0.25 ()) (fun g ->
        (* The paper's §V rationale: G' is denser than G. Holds whenever
           the matching is non-empty and no edges vanish entirely into
           matched pairs beyond those contracted. Allow equality. *)
        let m = Matching.random_maximal (Helpers.rng ()) g in
        let c = Contraction.contract g m in
        Graph.n_vertices c.Contraction.coarse = Graph.n_vertices g - Matching.size m);
  ]

(* --- Coarsening against the reference ----------------------------------------- *)

module Ref = Coarsen_reference

(* Both contractions of [g] by [mate] agree: equal fine_to_coarse, and
   coarse graphs equal in structure and in every total. Returns the
   coarse graph. *)
let same_contraction what g mate =
  let c = Contraction.contract g Matching.{ mate } in
  let r = Ref.contract g (Ref.of_mate mate) in
  let coarse = c.Contraction.coarse and ref_coarse = r.Ref.coarse in
  Alcotest.(check (array int)) (what ^ ": fine_to_coarse") r.Ref.fine_to_coarse
    c.Contraction.fine_to_coarse;
  check_bool (what ^ ": coarse graph") true (Graph.equal ref_coarse coarse);
  check_int (what ^ ": n_edges") (Graph.n_edges ref_coarse) (Graph.n_edges coarse);
  check_int (what ^ ": total_edge_weight") (Graph.total_edge_weight ref_coarse)
    (Graph.total_edge_weight coarse);
  check_int (what ^ ": total_vertex_weight") (Graph.total_vertex_weight ref_coarse)
    (Graph.total_vertex_weight coarse);
  coarse

(* Random matchings from two equal streams agree, leave the streams in
   the same state, and contract alike. *)
let same_random_level what ~rng ~ref_rng g =
  let m = Matching.random_maximal rng g and r = Ref.random_maximal ref_rng g in
  Alcotest.(check (array int)) (what ^ ": mate") r.Ref.mate m.Matching.mate;
  check_int (what ^ ": next draw") (Rng.int ref_rng 1_000_000) (Rng.int rng 1_000_000);
  same_contraction what g m.Matching.mate

(* Coarsen by random matchings for up to [levels] levels, checking
   each against the reference; stops when a level no longer shrinks. *)
let same_hierarchy what ~seed ~levels g =
  let rng = Helpers.rng ~seed () and ref_rng = Helpers.rng ~seed () in
  let rec go level g =
    if level < levels then begin
      let coarse = same_random_level (Printf.sprintf "%s level %d" what level) ~rng ~ref_rng g in
      if Graph.n_vertices coarse < Graph.n_vertices g then go (level + 1) coarse
      else level + 1
    end
    else level
  in
  go 0 g

(* Heavy-edge and empty matchings contract alike too. *)
let same_other_matchings what ~seed g =
  ignore (same_contraction (what ^ " heavy") g (Matching.heavy_edge (Helpers.rng ~seed ()) g).mate);
  ignore (same_contraction (what ^ " empty") g (no_matching g).mate)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let coarsen_reference_tests =
  [
    case "one case of every fuzz family, six levels deep" (fun () ->
        List.iter
          (fun (family, g) ->
            ignore (same_hierarchy family ~seed:3 ~levels:6 g);
            same_other_matchings family ~seed:3 g)
          (Helpers.fuzz_family_graphs ()));
    Helpers.qtest "weighted multigraphs: random, heavy-edge and empty matchings"
      gen_fuzzed_multigraph (fun g ->
        ignore (same_hierarchy "multigraph" ~seed:7 ~levels:3 g);
        same_other_matchings "multigraph" ~seed:7 g;
        true);
    case "every level of a Gnp(20k, d=4) hierarchy" (fun () ->
        let g = Gbisect.Gnp.with_average_degree (Helpers.rng ~seed:20 ()) ~n:20_000 ~avg_degree:4. in
        let levels = same_hierarchy "gnp" ~seed:21 ~levels:max_int g in
        check_bool "coarsens several levels" true (levels >= 8);
        same_other_matchings "gnp" ~seed:22 g);
    case "a merged weight past max_weight raises in both builds" (fun () ->
        (* Contracting 0-1 merges edges 0-2 and 1-2 into one edge of
           weight max_weight + 1; in the second graph it merges vertex
           weights to max_weight + 1. *)
        let heavy_edge = Graph.of_edges ~n:3 [ (0, 1, 1); (0, 2, Graph.max_weight); (1, 2, 1) ] in
        let heavy_vertex =
          Graph.of_edges ~vertex_weights:[| Graph.max_weight; 1 |] ~n:2 [ (0, 1, 1) ]
        in
        List.iter
          (fun (what, g) ->
            let mate = Array.init (Graph.n_vertices g) (fun u -> if u < 2 then 1 - u else -1) in
            check_bool (what ^ ": contract") true
              (raises_invalid (fun () -> Contraction.contract g Matching.{ mate }));
            check_bool (what ^ ": reference") true
              (raises_invalid (fun () -> Ref.contract g (Ref.of_mate mate))))
          [ ("edge", heavy_edge); ("vertex", heavy_vertex) ]);
    case "quotient rejects a bad classing" (fun () ->
        let g = Classic.path 3 in
        List.iter
          (fun (what, n, cls) ->
            check_bool what true (raises_invalid (fun () -> Graph.quotient g ~n cls)))
          [
            ("short class array", 2, [| 0; 1 |]);
            ("class out of range", 2, [| 0; 2; 1 |]);
            ("negative class", 2, [| 0; -1; 1 |]);
            ("empty class", 3, [| 0; 0; 2 |]);
            ("more classes than vertices", 4, [| 0; 1; 2 |]);
            ("negative n", -1, [| 0; 0; 0 |]);
          ];
        check_bool "one class is one vertex of weight 3" true
          (Graph.equal
             (Graph.of_edges ~vertex_weights:[| 3 |] ~n:1 [])
             (Graph.quotient g ~n:1 [| 0; 0; 0 |])));
  ]

(* --- of_edge_arrays --------------------------------------------------- *)

(* A multigraph with a few hubs of input degree 17..2000, so their
   slices are longer than the insertion-sort cutoff: repeated pairs
   with random weights, in both orientations, in shuffled order. *)
let gen_hub_multigraph =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let r = Rng.create ~seed in
  let n = 40 + Rng.int r 2000 in
  let edges = ref [] in
  for _ = 1 to 1 + Rng.int r 3 do
    let hub = Rng.int r n in
    for _ = 1 to Rng.int_in r 17 2000 do
      let v = Rng.int r n in
      if v <> hub then begin
        edges := (hub, v, 1 + Rng.int r 9) :: !edges;
        if Rng.bernoulli r 0.3 then edges := (v, hub, 1 + Rng.int r 9) :: !edges
      end
    done
  done;
  for _ = 1 to n do
    let u = Rng.int r n and v = Rng.int r n in
    if u <> v then edges := (u, v, 1 + Rng.int r 9) :: !edges
  done;
  let edges = Array.of_list !edges in
  Rng.shuffle_in_place r edges;
  return (seed, n, edges)

(* Each vertex's adjacency by List.sort and weight summation. *)
let reference_adjacency n edges =
  let incident = Array.make n [] in
  Array.iter
    (fun (u, v, w) ->
      incident.(u) <- (v, w) :: incident.(u);
      incident.(v) <- (u, w) :: incident.(v))
    edges;
  Array.map
    (fun l ->
      let rec merge = function
        | (v, w) :: (v', w') :: rest when v = v' -> merge ((v, w + w') :: rest)
        | x :: rest -> x :: merge rest
        | [] -> []
      in
      Array.of_list (merge (List.sort (fun (a, _) (b, _) -> Int.compare a b) l)))
    incident

let edge_arrays_tests =
  [
    case "matches of_edges on the same multiset" (fun () ->
        let g = Graph.of_edges ~n:4 [ (0, 1, 2); (2, 3, 1); (1, 0, 3) ] in
        let g' =
          Graph.of_edge_arrays ~edge_weights:[| 2; 1; 3 |] ~n:4 [| 0; 2; 1 |]
            [| 1; 3; 0 |]
        in
        check_bool "equal" true (Graph.equal g g'));
    case "len reads only the prefix of growable buffers" (fun () ->
        let src = [| 0; 1; 9; 9 |] and dst = [| 1; 2; 9; 9 |] in
        let g = Graph.of_edge_arrays ~n:3 ~len:2 src dst in
        check_int "m" 2 (Graph.n_edges g);
        check_bool "path" true (Graph.equal g (Graph.of_unweighted_edges ~n:3 [ (0, 1); (1, 2) ])));
    case "vertex weights flow through" (fun () ->
        let g = Graph.of_edge_arrays ~vertex_weights:[| 5; 7 |] ~n:2 [| 0 |] [| 1 |] in
        check_int "total" 12 (Graph.total_vertex_weight g));
    case "bad inputs are rejected" (fun () ->
        Alcotest.check_raises "len" (Invalid_argument "Csr.of_edge_arrays: len out of range")
          (fun () -> ignore (Graph.of_edge_arrays ~n:2 ~len:3 [| 0 |] [| 1 |]));
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Csr.of_edge_arrays: src/dst length mismatch") (fun () ->
            ignore (Graph.of_edge_arrays ~n:2 [| 0; 1 |] [| 1 |]));
        (* content errors share of_edges's diagnostics (documented) *)
        Alcotest.check_raises "self-loop" (Invalid_argument "Csr.of_edges: self-loop")
          (fun () -> ignore (Graph.of_edge_arrays ~n:2 [| 1 |] [| 1 |])));
    Helpers.qtest ~count:100 "agrees with of_edges on any graph" (Helpers.gen_graph ())
      (fun g ->
        let m = Graph.n_edges g in
        let src = Array.make (max 1 m) 0 and dst = Array.make (max 1 m) 0 in
        let wgt = Array.make (max 1 m) 1 in
        let k = ref 0 in
        Graph.iter_edges g (fun u v w ->
            src.(!k) <- u;
            dst.(!k) <- v;
            wgt.(!k) <- w;
            incr k);
        let vertex_weights =
          Array.init (Graph.n_vertices g) (Graph.vertex_weight g)
        in
        let g' =
          Graph.of_edge_arrays ~vertex_weights ~edge_weights:wgt
            ~n:(Graph.n_vertices g) ~len:m src dst
        in
        Helpers.check_graph_ok g';
        Graph.equal g g');
    Helpers.qtest_pair ~count:50 "long slices sort like List.sort" gen_hub_multigraph
      (fun (seed, n, edges) ->
        Printf.sprintf "seed %d: n=%d, %d edges" seed n (Array.length edges))
      (fun (_, n, edges) ->
        let g =
          Graph.of_edge_arrays ~n
            ~edge_weights:(Array.map (fun (_, _, w) -> w) edges)
            (Array.map (fun (u, _, _) -> u) edges)
            (Array.map (fun (_, v, _) -> v) edges)
        in
        Helpers.check_graph_ok g;
        let expected = reference_adjacency n edges in
        Array.length expected = Graph.n_vertices g
        && Array.for_all Fun.id (Array.mapi (fun u adj -> adjacency g u = adj) expected));
  ]

(* --- Scale limits ------------------------------------------------------ *)

let with_temp_file contents f =
  let path = Filename.temp_file "gbisect_stream" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          output_string oc contents);
      f path)

let scale_tests =
  [
    case "limits are sane" (fun () ->
        check_bool "vertices" true (Graph.max_vertices > 1_000_000);
        check_bool "edges" true (Graph.max_edges > 10_000_000);
        (* in-range sizes pass silently *)
        Graph.validate_scale ~n:1_000_000 ~m:5_000_000);
    case "validate_scale rejects oversized declarations" (fun () ->
        List.iter
          (fun (n, m) ->
            match Graph.validate_scale ~n ~m with
            | exception Failure msg ->
                check_bool "diagnostic names the limit" true
                  (Helpers.contains msg "graph too large")
            | () -> Alcotest.failf "accepted n=%d m=%d" n m)
          [ (Graph.max_vertices + 1, 0); (2, Graph.max_edges + 1) ]);
    case "parsers reject hostile headers before allocating" (fun () ->
        (* a header declaring 10^12 vertices must fail with one
           diagnostic, not attempt the allocation *)
        List.iter
          (fun s ->
            match Gio.of_edge_list_string s with
            | exception Failure msg ->
                check_bool "edge list" true (Helpers.contains msg "graph too large")
            | _ -> Alcotest.failf "accepted %S" s)
          [ "1000000000000 1\n0 1\n"; "2 1000000000000\n0 1\n" ];
        (match Gio.of_metis_string "1000000000000 1\n" with
        | exception Failure msg ->
            check_bool "metis" true (Helpers.contains msg "graph too large")
        | _ -> Alcotest.fail "metis accepted oversized header");
        (* A declared edge count within the limits sizes nothing before
           the edges are read: 5,000,000 edges declared in 14 bytes fail
           on the count, from a string or a file, with under 1 MiB
           allocated. *)
        let small_failure label expected parse =
          let before = Gc.allocated_bytes () in
          (match parse () with
          | exception Failure msg -> Alcotest.(check string) label expected msg
          | _ -> Alcotest.failf "%s: accepted" label);
          let allocated = int_of_float (Gc.allocated_bytes () -. before) in
          check_bool (Printf.sprintf "%s: %d bytes allocated" label allocated) true
            (allocated < 1 lsl 20)
        in
        let edges = "2 5000000\n0 1\n" and metis = "2 5000000\n2\n1\n" in
        let edges_msg = "edge list: header declares 5000000 edges, found 1"
        and metis_msg = "metis: header declares 5000000 edges, graph has 1" in
        small_failure "edge list" edges_msg (fun () -> Gio.of_edge_list_string edges);
        small_failure "metis" metis_msg (fun () -> Gio.of_metis_string metis);
        with_temp_file edges (fun path ->
            small_failure "edge list file" edges_msg (fun () -> Gio.read_edge_list path));
        with_temp_file metis (fun path ->
            small_failure "metis file" metis_msg (fun () -> Gio.read_metis path)));
  ]

(* --- Streaming readers vs in-memory parsers ---------------------------- *)

let streaming_tests =
  [
    case "file reader matches string parser on awkward bytes" (fun () ->
        (* CRLF, comments, blank lines, missing trailing newline *)
        List.iter
          (fun s ->
            with_temp_file s (fun path ->
                check_bool "same graph" true
                  (Graph.equal (Gio.read_edge_list path) (Gio.of_edge_list_string s))))
          [
            "3 2\r\n0 1\r\n1 2\r\n";
            "# c\n3 2\n\n0 1\n1 2";
            "3 2\n0 1\n1 2  # trailing\n";
          ]);
    case "metis file reader matches string parser" (fun () ->
        List.iter
          (fun s ->
            with_temp_file s (fun path ->
                check_bool "same graph" true
                  (Graph.equal (Gio.read_metis path) (Gio.of_metis_string s))))
          [ "% c\r\n4 4\r\n2 3\r\n1 3\r\n1 2 4\r\n3\r\n"; "2 1\n2\n1" ]);
    case "file reader fails like the string parser on bad input" (fun () ->
        List.iter
          (fun s ->
            let string_msg =
              match Gio.of_edge_list_string s with
              | exception Failure m -> m
              | _ -> Alcotest.failf "string parser accepted %S" s
            in
            with_temp_file s (fun path ->
                match Gio.read_edge_list path with
                | exception Failure m ->
                    Alcotest.(check string) "same diagnostic" string_msg m
                | _ -> Alcotest.failf "file parser accepted %S" s))
          [ "2 1\n0\n"; "2 2\n0 1\n"; "2 1\n0 5\n" ]);
    Helpers.qtest ~count:100 "streaming edge-list read = in-memory parse"
      (Helpers.gen_graph ())
      (fun g ->
        let s = Gio.to_edge_list_string g in
        with_temp_file s (fun path ->
            Graph.equal (Gio.read_edge_list path) (Gio.of_edge_list_string s)));
    Helpers.qtest ~count:100 "streaming metis read = in-memory parse"
      (Helpers.gen_graph ())
      (fun g ->
        let s = to_metis g in
        with_temp_file s (fun path ->
            Graph.equal (Gio.read_metis path) (Gio.of_metis_string s)));
    Helpers.qtest ~count:60 "streaming write then read round-trips"
      (Helpers.gen_graph ())
      (fun g ->
        with_temp_file (Gio.to_edge_list_string g) (fun path ->
            Graph.equal g (Gio.read_edge_list path)));
  ]

let () =
  Alcotest.run "graph"
    [
      ("csr", csr_tests);
      ("csr properties", csr_property_tests);
      ("builder", builder_tests);
      ("classic", classic_tests);
      ("traverse", traverse_tests);
      ("edge arrays", edge_arrays_tests);
      ("scale limits", scale_tests);
      ("io", io_tests);
      ("streaming", streaming_tests);
      ("matching", matching_tests);
      ("matching properties", matching_property_tests);
      ("matching multigraphs", matching_multigraph_tests);
      ("contraction", contraction_tests);
      ("contraction properties", contraction_property_tests);
      ("coarsen reference", coarsen_reference_tests);
    ]
