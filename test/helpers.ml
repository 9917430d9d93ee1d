(* Shared test utilities: deterministic RNG factory, QCheck generators
   for graphs and bisections, and common assertions. *)

module Rng = Gbisect.Rng
module Graph = Gbisect.Graph
module Bisection = Gbisect.Bisection

let rng ?(seed = 424242) () = Rng.create ~seed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Ambient state ---------------------------------------------------- *)

let with_jobs n f =
  let saved = Gbisect.Pool.jobs () in
  Gbisect.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Gbisect.Pool.set_jobs saved) f

(* Seconds cells read the clock; pinning it makes every table a pure
   function of the code. *)
let with_constant_clock f =
  Gbisect.Obs.Clock.set (fun () -> 0.);
  (* lint: allow no-wall-clock — restores the default clock source after the pinned-clock scope *)
  Fun.protect ~finally:(fun () -> Gbisect.Obs.Clock.set Sys.time) f

(* A clock that moves on every read: every span gets its own start and
   end, and a timing cell a warm run recomputed, or a record it emitted
   afresh, differs from the cold run's. *)
let with_ticking_clock f =
  let ticks = Atomic.make 0 in
  Gbisect.Obs.Clock.set (fun () -> float_of_int (Atomic.fetch_and_add ticks 1) *. 1e-3);
  (* lint: allow no-wall-clock — restores the default clock source after the ticking-clock scope *)
  Fun.protect ~finally:(fun () -> Gbisect.Obs.Clock.set Sys.time) f

(* Wall-clock seconds for the scope, so that a deadline a test reads
   from Gb_obs.Clock counts real waiting, as in the CLI, and not the
   test's own CPU time. *)
let with_wall_clock f =
  (* lint: allow no-wall-clock — client timeouts must count real waiting *)
  Gbisect.Obs.Clock.set Unix.gettimeofday;
  (* lint: allow no-wall-clock — restores the default clock source after the wall-clock scope *)
  Fun.protect ~finally:(fun () -> Gbisect.Obs.Clock.set Sys.time) f

(* Remove a file or a directory tree; a missing path is not an error. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The matched edges of a matching, each as (u, v) with u < v, in
   ascending order of u. *)
let matched_pairs (m : Gbisect.Matching.t) =
  let pairs = ref [] in
  Array.iteri (fun u v -> if v > u then pairs := (u, v) :: !pairs) m.Gbisect.Matching.mate;
  List.rev !pairs

(* The first graph of every fuzz family, with the family's name. *)
let fuzz_family_graphs () =
  let module G = Gbisect.Fuzz_generators in
  List.map
    (fun family ->
      let rec first seed =
        match G.generate ~seed with
        | { G.family = f; graph; _ } when f = family -> graph
        | _ | (exception _) -> first (seed + 1)
      in
      (family, first 0))
    G.families

let check_graph_ok g =
  try Graph.check g
  with Failure msg -> Alcotest.failf "graph invariant violated: %s" msg

(* --- QCheck generators ---------------------------------------------- *)

(* A random simple unweighted graph described by (n, edge list); sizes
   kept small so exact oracles stay cheap. *)
let gen_graph ?(min_n = 2) ?(max_n = 24) ?(p = 0.3) () =
  let open QCheck2.Gen in
  let* n = int_range min_n max_n in
  let* seed = int_range 0 1_000_000 in
  let r = Rng.create ~seed in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli r p then edges := (u, v) :: !edges
    done
  done;
  return (Graph.of_unweighted_edges ~n !edges)

(* A graph with an even number of vertices, for bisection tests. *)
let gen_even_graph ?(max_n = 24) ?(p = 0.3) () =
  let open QCheck2.Gen in
  let* g = gen_graph ~min_n:2 ~max_n ~p () in
  let n = Graph.n_vertices g in
  if n land 1 = 0 then return g
  else return (Graph.of_unweighted_edges ~n:(n + 1) (List.map (fun (u, v, _) -> (u, v)) (Graph.edges g)))

(* A weighted graph (weights 1..5 on vertices and edges), as produced
   by contraction. *)
let gen_weighted_graph ?(max_n = 20) () =
  let open QCheck2.Gen in
  let* n = int_range 2 max_n in
  let* seed = int_range 0 1_000_000 in
  let r = Rng.create ~seed in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli r 0.3 then edges := (u, v, 1 + Rng.int r 5) :: !edges
    done
  done;
  let vw = Array.init n (fun _ -> 1 + Rng.int r 3) in
  return (Graph.of_edges ~vertex_weights:vw ~n !edges)

(* A balanced random side assignment for a graph. *)
let balanced_sides r g =
  Gbisect.Initial.random r g

let graph_print g =
  Format.asprintf "%a [%s]" Graph.pp g
    (String.concat ";"
       (List.map (fun (u, v, w) -> Printf.sprintf "%d-%d(%d)" u v w) (Graph.edges g)))

(* Wrap a QCheck2 property as an alcotest case. *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:graph_print gen prop)

let qtest_pair ?(count = 200) name gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let case name f = Alcotest.test_case name `Quick f

(* Substring search (no external deps). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* A netlist as the readers take it: "n nets", then one 0-based net per
   line; with [~hmetis], "nets n" and 1-based members. *)
let netlist_text ?(hmetis = false) h =
  let module H = Gbisect.Hgraph in
  let n = H.n_vertices h and m = H.n_nets h in
  let net e =
    String.concat " "
      (List.map (fun v -> string_of_int (if hmetis then v + 1 else v))
         (Array.to_list (H.net_members h e)))
  in
  String.concat "\n"
    ((if hmetis then Printf.sprintf "%d %d" m n else Printf.sprintf "%d %d" n m)
    :: List.init m net)
  ^ "\n"

(* Every vertex has degree [d]. *)
let regular g d = List.for_all (fun v -> Graph.degree g v = d) (List.init (Graph.n_vertices g) Fun.id)

(* Exhaustively verify a bisection's cached values against recomputation. *)
let check_bisection_consistent g b =
  let side = Bisection.sides b in
  check_int "cut cache" (Bisection.compute_cut g side) (Bisection.cut b);
  let c0, c1 = Bisection.side_counts side in
  Alcotest.(check (pair int int)) "counts cache" (c0, c1) (Bisection.counts b)
