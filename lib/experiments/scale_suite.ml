(* The million-edge scale bench behind `gbisect scale`: synthesise one
   large instance in memory (the generators run through the unboxed
   array path), bisect it with a scale-suitable solver, and report
   end-to-end throughput plus the process's peak RSS as a
   schema-versioned, host-fingerprinted artifact
   (results/BENCH_scale.json). Unlike the micro benches of
   [Perf_suite], one run of one big instance is the measurement: the
   quantity of interest is "does a multi-million-edge graph fit and
   finish", not nanosecond noise. *)

module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Classic = Gb_graph.Classic
module Gnp = Gb_models.Gnp
module Bisection = Gb_partition.Bisection
module Obs = Gb_obs
module Json = Gb_obs.Json
module Algo = Gb_algo.Algo

type model = Gnp of { n : int; avg_degree : float } | Grid of { rows : int; cols : int }

type algorithm = Mlkl | Mlfm | Fm | Kl

(* The scale-suitable subset of the registry. *)
let subset = [ (Mlkl, `Multilevel); (Mlfm, `Mlfm); (Fm, `Fm); (Kl, `Kl) ]
let to_registry a : Algo.t = List.assoc a subset
let of_registry (x : Algo.t) = List.find_map (fun (a, y) -> if y = x then Some a else None) subset
let algorithm_id a = Algo.id (to_registry a)

let model_to_json = function
  | Gnp { n; avg_degree } ->
      Json.Obj
        [
          ("family", Json.String "gnp");
          ("n", Json.Int n);
          ("avg_degree", Json.Float avg_degree);
        ]
  | Grid { rows; cols } ->
      Json.Obj
        [ ("family", Json.String "grid"); ("rows", Json.Int rows); ("cols", Json.Int cols) ]

type result = {
  model : model;
  algorithm : algorithm;
  seed : int;
  n : int;
  m : int;
  cut : int;
  balanced : bool;
  levels : int;
  build_seconds : float;
  solve_seconds : float;
  edges_per_sec : float;
  peak_rss_bytes : int option;
}

let build_graph rng = function
  | Gnp { n; avg_degree } -> Gnp.with_average_degree rng ~n ~avg_degree
  | Grid { rows; cols } -> Classic.grid ~rows ~cols

let run ?ml ~algorithm ~seed model =
  let rng = Rng.create ~seed in
  let t0 = Obs.Clock.now () in
  let g = build_graph rng model in
  let t1 = Obs.Clock.now () in
  let o = (Algo.find (to_registry algorithm)).run ?ml rng g in
  let t2 = Obs.Clock.now () in
  let bisection = o.bisection in
  (* The flat solvers report no "levels": their V-cycle depth is 1. *)
  let levels = match List.assoc_opt "levels" o.stats with Some (Json.Int l) -> l | _ -> 1 in
  let balanced = Bisection.is_balanced bisection in
  let n = Csr.n_vertices g and m = Csr.n_edges g in
  let total = t2 -. t0 in
  {
    model;
    algorithm;
    seed;
    n;
    m;
    cut = Bisection.cut bisection;
    balanced;
    levels;
    build_seconds = t1 -. t0;
    solve_seconds = t2 -. t1;
    edges_per_sec = (if total > 0. then float_of_int m /. total else 0.);
    peak_rss_bytes = Obs.Proc.peak_rss_bytes ();
  }

let to_json r =
  Obs.Proc.artifact ~suite:"scale"
    [
      ("model", model_to_json r.model);
      ("algorithm", Json.String (algorithm_id r.algorithm));
      ("seed", Json.Int r.seed);
      ("n", Json.Int r.n);
      ("m", Json.Int r.m);
      ("cut", Json.Int r.cut);
      ("balanced", Json.Bool r.balanced);
      ("levels", Json.Int r.levels);
      ("build_seconds", Json.Float r.build_seconds);
      ("solve_seconds", Json.Float r.solve_seconds);
      ("edges_per_sec", Json.Float r.edges_per_sec);
      ( "peak_rss_bytes",
        match r.peak_rss_bytes with Some b -> Json.Int b | None -> Json.Null );
    ]

let render r =
  let rss =
    match r.peak_rss_bytes with
    (* lint: allow no-float-format — display-only console summary, never parsed back *)
    | Some b -> Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.)
    | None -> "n/a"
  in
  Printf.sprintf
    (* lint: allow no-float-format — display-only console summary, never parsed back *)
    "scale: %s, %d vertices, %d edges: cut %d%s in %.2fs build + %.2fs solve (%d \
     level%s, %.0f edges/s end-to-end, peak RSS %s)"
    (algorithm_id r.algorithm) r.n r.m r.cut
    (if r.balanced then "" else " (UNBALANCED)")
    r.build_seconds r.solve_seconds r.levels
    (if r.levels = 1 then "" else "s")
    r.edges_per_sec rss
