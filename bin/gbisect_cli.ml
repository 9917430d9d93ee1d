(* gbisect — command-line front end.

   Subcommands:
     gen      generate a graph (random model or classic family) to a file
     solve    bisect a graph file with any registered algorithm (Gbisect.Algo)
     race     race a portfolio of algorithms on one graph, keep the best cut
     kway     k-way partition by recursive bisection
     netlist  bisect a hypergraph netlist (true net-cut objective)
     table    regenerate the paper's tables and figures (see `table --list`)
     demo     Figure 3: a ladder graph with a bisection, as DOT
     fuzz     seeded property fuzzing of solvers/data structures vs oracles
     perf     seeded micro-benchmark suite + regression gate vs committed baseline
     serve    long-running bisection daemon on a Unix/TCP socket (SERVING.md)
     bombard  deterministic load generator for a running serve daemon
     scale    one multi-million-edge solve: throughput and peak RSS

   Graphs travel in the edge-list format of Gbisect.Graph_io; METIS
   files are auto-detected by the `.graph` extension. *)

open Cmdliner

let read_graph path =
  if Filename.check_suffix path ".graph" then Gbisect.Graph_io.read_metis path
  else Gbisect.Graph_io.read_edge_list path

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

let seed_term =
  let doc = "Random seed (experiments are reproducible given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"INT" ~doc)

let output_term =
  let doc = "Output file; - for stdout." in
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let write_output path contents =
  if path = "-" then print_string contents
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)
  end

(* ------------------------------------------------------------------ *)
(* Observability options (solve and table)                             *)

let trace_term =
  let doc =
    "Write a Chrome trace_event JSON-lines file to $(docv); load it in Perfetto or \
     chrome://tracing to see spans for passes, plateaus and compaction phases."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_term =
  let doc =
    "Collect internal counters and histograms (pairs scanned, bucket updates, move \
     acceptance, matching sizes) and print them to stderr when done."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let jobs_term =
  let doc =
    "Domains for the parallel fan-out points (random starts, table replicates). \
     Default: all cores; 1 restores the sequential path. Results are bit-identical \
     at every value — see PARALLELISM.md."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function
  | Some n when n >= 1 -> Gbisect.Pool.set_jobs n
  | Some n ->
      Printf.eprintf "gbisect: --jobs expects a positive integer, got %d\n" n;
      exit 2
  | None -> ()

(* Uniform exit codes (see README): anything that dies at runtime —
   unreadable/malformed input, a failed generator — prints one
   "gbisect: ..." line on stderr and exits 1; usage errors (bad flags,
   unknown ids) exit 2 via Cmdliner or the explicit checks below. *)
let runtime_guard f =
  try f () with
  | Failure msg | Sys_error msg ->
      Printf.eprintf "gbisect: %s\n" msg;
      exit 1
  | Invalid_argument msg ->
      Printf.eprintf "gbisect: %s\n" msg;
      exit 1

let usage_error msg =
  Printf.eprintf "gbisect: %s\n" msg;
  exit 2

(* An int flag whose value must pass [ok]: anything else is a usage
   error naming the flag. Cmdliner evaluates the term before the
   command body runs, so a bad value exits 2 before any input is read. *)
let checked_int ~flag ok expects term =
  let check v =
    if ok v then v else usage_error (Printf.sprintf "%s expects %s, got %d" flag expects v)
  in
  Term.(const check $ term)

let starts_term ~default ~docv doc =
  checked_int ~flag:"--starts" (fun s -> s >= 1) "at least 1"
    Arg.(value & opt int default & info [ "starts" ] ~docv ~doc)

let with_obs ~trace ~metrics f =
  (match trace with
  | Some file -> (
      try Gbisect.Obs.Trace.set (Gbisect.Obs.Trace.to_file file)
      with Sys_error msg ->
        Printf.eprintf "gbisect: cannot open trace file: %s\n" msg;
        exit 2)
  | None -> ());
  if metrics then Gbisect.Obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Gbisect.Obs.Trace.close ();
      if metrics then prerr_string (Gbisect.Obs.Metrics.render ()))
    f

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let gen_cmd =
  let model =
    let doc =
      "Graph family: gnp, planted, gbreg, regular, ladder, grid, btree, cycle, \
       hypercube."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)
  in
  let n =
    let doc = "Number of vertices (total)." in
    Arg.(value & opt int 1000 & info [ "n" ] ~docv:"INT" ~doc)
  in
  let degree =
    let doc = "Average degree (gnp/planted) or exact degree (gbreg/regular)." in
    Arg.(value & opt float 3.0 & info [ "d"; "degree" ] ~docv:"FLOAT" ~doc)
  in
  let b =
    let doc = "Planted bisection width (planted/gbreg)." in
    Arg.(value & opt int 16 & info [ "b" ] ~docv:"INT" ~doc)
  in
  let run model n degree b seed output =
    runtime_guard @@ fun () ->
    let rng = Gbisect.Rng.create ~seed in
    let even k = if k land 1 = 1 then k + 1 else k in
    let graph =
      match String.lowercase_ascii model with
      | "gnp" -> Gbisect.Gnp.with_average_degree rng ~n ~avg_degree:degree
      | "planted" ->
          Gbisect.Planted.generate rng
            (Gbisect.Planted.params_for_average_degree ~two_n:(even n) ~avg_degree:degree
               ~bis:b)
      | "gbreg" ->
          let params =
            Gbisect.Bregular.{ two_n = even n; b; d = int_of_float degree }
          in
          let params =
            { params with Gbisect.Bregular.b = Gbisect.Bregular.nearest_feasible_b params }
          in
          Gbisect.Bregular.generate rng params
      | "regular" ->
          Gbisect.Degree_seq.random_regular rng ~n ~d:(int_of_float degree)
      | "ladder" -> Gbisect.Classic.ladder (max 1 (n / 2))
      | "grid" ->
          let side = max 2 (int_of_float (Float.round (sqrt (float_of_int n)))) in
          Gbisect.Classic.grid ~rows:side ~cols:side
      | "btree" ->
          let rec depth d = if (1 lsl (d + 1)) - 1 > n then d - 1 else depth (d + 1) in
          Gbisect.Classic.binary_tree ~depth:(max 1 (depth 1))
      | "cycle" -> Gbisect.Classic.cycle (max 3 n)
      | "hypercube" ->
          let rec dim d = if 1 lsl d > n then d - 1 else dim (d + 1) in
          Gbisect.Classic.hypercube (max 1 (dim 1))
      | other -> failwith (Printf.sprintf "unknown model %S" other)
    in
    write_output output (Gbisect.Graph_io.to_edge_list_string graph);
    Printf.eprintf "generated %s: %d vertices, %d edges, avg degree %.2f\n" model
      (Gbisect.Graph.n_vertices graph)
      (Gbisect.Graph.n_edges graph)
      (Gbisect.Graph.average_degree graph)
  in
  let info = Cmd.info "gen" ~doc:"Generate a graph from one of the paper's models." in
  Cmd.v info Term.(const run $ model $ n $ degree $ b $ seed_term $ output_term)

(* ------------------------------------------------------------------ *)
(* solve                                                               *)

(* The one algorithm converter: ids, the "multilevel" alias and the
   help lists all come from the registry. *)
let parse_algorithm s =
  match Gbisect.Algo.of_id s with
  | Some a -> Ok a
  | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))

let algorithm_conv =
  let print fmt a = Format.pp_print_string fmt (Gbisect.Algo.id a) in
  Arg.conv (parse_algorithm, print)

let algorithm_ids = String.concat ", " Gbisect.Algo.ids

(* The V-cycle flags of solve and scale, defaulting to the registry's
   settings and checked against the least value the V-cycle accepts.
   Each command offers a subset; the rest keep the default. *)
let ml_flag name field ~least doc =
  checked_int ~flag:("--" ^ name) (fun v -> v >= least) (Printf.sprintf "at least %d" least)
    Arg.(value & opt int (field Gbisect.Algo.default_ml) & info [ name ] ~docv:"INT" ~doc)

let ml_min_vertices =
  ml_flag "ml-min-vertices" (fun m -> m.min_vertices) ~least:2
    "Multilevel (mlkl/mlfm): stop coarsening below this many vertices."

let ml_max_levels =
  ml_flag "ml-max-levels" (fun m -> m.max_levels) ~least:1
    "Multilevel (mlkl/mlfm): maximum coarsening depth."

(* --max-rss of solve and scale: a peak-RSS budget checked once the
   solve is done, failing (exit 1) when the peak is over it. *)
let max_rss_term =
  let doc =
    "Fail (exit 1) if the process's peak resident set exceeds this many mebibytes; \
     checked after the solve."
  in
  Arg.(value & opt (some int) None & info [ "max-rss" ] ~docv:"MB" ~doc)

let check_max_rss max_rss peak =
  match (max_rss, peak) with
  | Some budget_mb, Some peak when peak > budget_mb * 1024 * 1024 ->
      failwith
        (Printf.sprintf "peak RSS %d MiB exceeds the --max-rss budget of %d MiB"
           (peak / (1024 * 1024))
           budget_mb)
  | Some _, None ->
      Printf.eprintf "gbisect: warning: --max-rss unsupported (no /proc/self/status)\n"
  | _ -> ()

let solve_cmd =
  let file =
    let doc = "Graph file (edge list, or METIS if named *.graph)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)
  in
  let algorithm =
    let doc = "Algorithm: " ^ algorithm_ids ^ "." in
    Arg.(value & opt algorithm_conv `Ckl & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)
  in
  let starts =
    starts_term ~default:2 ~docv:"INT" "Number of random starts (best is kept)."
  in
  let ml =
    let ml min_vertices max_levels = { Gbisect.Algo.default_ml with min_vertices; max_levels } in
    Term.(const ml $ ml_min_vertices $ ml_max_levels)
  in
  let dot =
    let doc = "Also write a DOT rendering with the cut highlighted." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  let run file algorithm starts ml max_rss seed dot trace metrics jobs =
    runtime_guard @@ fun () ->
    apply_jobs jobs;
    let graph = read_graph file in
    let rng = Gbisect.Rng.create ~seed in
    let result =
      with_obs ~trace ~metrics (fun () -> Gbisect.solve ~algorithm ~starts ~ml rng graph)
    in
    check_max_rss max_rss (Gbisect.Obs.Proc.peak_rss_bytes ());
    let bisection = result.Gbisect.bisection in
    Printf.printf "%s on %s: cut %d (%d+%d vertices), %.3fs\n"
      (Gbisect.Algo.name algorithm)
      file
      (Gbisect.Bisection.cut bisection)
      (fst (Gbisect.Bisection.counts bisection))
      (snd (Gbisect.Bisection.counts bisection))
      result.Gbisect.seconds;
    (match dot with
    | None -> ()
    | Some path ->
        write_output path
          (Gbisect.Graph_io.to_dot ~highlight_cut:(Gbisect.Bisection.sides bisection) graph));
    if not (Gbisect.Bisection.is_balanced bisection) then begin
      let c0, c1 = Gbisect.Bisection.counts bisection in
      Printf.eprintf
        "gbisect: warning: result is not a balanced bisection (%d vs %d vertices)\n" c0 c1;
      exit 1
    end
  in
  let info = Cmd.info "solve" ~doc:"Bisect a graph file." in
  Cmd.v info
    Term.(
      const run $ file $ algorithm $ starts $ ml $ max_rss_term $ seed_term $ dot $ trace_term
      $ metrics_term $ jobs_term)

(* ------------------------------------------------------------------ *)
(* race                                                                *)

let race_cmd =
  let file =
    let doc = "Graph file (edge list, or METIS if named *.graph)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)
  in
  let portfolio =
    let doc =
      "Comma-separated backends to race (" ^ algorithm_ids
      ^ "). The list order is the tie-break order: equal cuts go to the earliest \
       backend, never to wall-clock, so the output is byte-identical at any \
       --jobs value."
    in
    let default = String.concat "," (List.map Gbisect.Algo.id Gbisect.default_portfolio) in
    Arg.(value & opt string default & info [ "portfolio" ] ~docv:"LIST" ~doc)
  in
  let starts =
    starts_term ~default:1 ~docv:"INT" "Random starts per backend (best is kept)."
  in
  let run file portfolio starts seed trace metrics jobs =
    runtime_guard @@ fun () ->
    apply_jobs jobs;
    let portfolio =
      String.split_on_char ',' portfolio
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match parse_algorithm s with
             | Ok a -> a
             | Error (`Msg m) -> usage_error m)
    in
    if portfolio = [] then usage_error "empty --portfolio";
    let graph = read_graph file in
    let rng = Gbisect.Rng.create ~seed in
    let outcome =
      with_obs ~trace ~metrics (fun () -> Gbisect.race ~portfolio ~starts rng graph)
    in
    (* Stdout carries only seed-determined fields — CI diffs this
       byte-for-byte across --jobs values. Timings go to stderr. *)
    Printf.printf "race on %s: %d backends, seed %d\n" file
      (Array.length outcome.Gbisect.Race.entries)
      seed;
    Array.iter
      (fun e ->
        Printf.printf "  %-5s cut %d (%d+%d vertices)\n" e.Gbisect.Race.backend
          e.Gbisect.Race.cut
          (fst (Gbisect.Bisection.counts e.Gbisect.Race.bisection))
          (snd (Gbisect.Bisection.counts e.Gbisect.Race.bisection)))
      outcome.Gbisect.Race.entries;
    let w = outcome.Gbisect.Race.winner in
    Printf.printf "winner: %s cut %d\n" w.Gbisect.Race.backend w.Gbisect.Race.cut;
    Array.iter
      (fun e ->
        Printf.eprintf "gbisect: race: %s finished in %.3fs\n" e.Gbisect.Race.backend
          e.Gbisect.Race.seconds)
      outcome.Gbisect.Race.entries
  in
  let info =
    Cmd.info "race"
      ~doc:
        "Race a portfolio of bisection backends concurrently on one graph and keep \
         the best cut. Deterministic: backend i runs on substream i of one derived \
         seed and ties break to the earliest backend in the portfolio order, so \
         stdout is byte-identical at every --jobs value (timings go to stderr)."
  in
  Cmd.v info
    Term.(
      const run $ file $ portfolio $ starts $ seed_term $ trace_term $ metrics_term
      $ jobs_term)

(* ------------------------------------------------------------------ *)
(* kway                                                                *)

let kway_cmd =
  let file =
    let doc = "Graph file (edge list, or METIS if named *.graph)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)
  in
  let k =
    let doc = "Number of parts (a power of two)." in
    checked_int ~flag:"-k" Gbisect.Kway.is_power_of_two "a power of two"
      Arg.(value & opt int 4 & info [ "k" ] ~docv:"INT" ~doc)
  in
  let algorithm =
    let doc = "Per-level bisection solver: " ^ algorithm_ids ^ "." in
    Arg.(value & opt algorithm_conv `Ckl & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)
  in
  let run file k algorithm seed =
    runtime_guard @@ fun () ->
    let graph = read_graph file in
    let entry = Gbisect.Algo.find algorithm in
    let solver rng g = Gbisect.Bisection.sides (entry.run rng g).bisection in
    let rng = Gbisect.Rng.create ~seed in
    let result = Gbisect.Kway.partition ~k ~solver rng graph in
    Gbisect.Kway.validate graph result;
    let sizes = Gbisect.Kway.part_sizes result in
    Printf.printf "%d-way partition of %s: total cut %d (levels %s)\n" k file
      result.Gbisect.Kway.total_cut
      (String.concat "+" (List.map string_of_int result.Gbisect.Kway.level_cuts));
    Array.iteri (fun p s -> Printf.printf "  part %d: %d vertices\n" p s) sizes
  in
  let info = Cmd.info "kway" ~doc:"Partition a graph into k parts by recursive bisection." in
  Cmd.v info Term.(const run $ file $ k $ algorithm $ seed_term)

(* ------------------------------------------------------------------ *)
(* netlist                                                             *)

let netlist_cmd =
  let file =
    let doc =
      "Netlist file (gbisect format; hMETIS if named *.hgr). Omit to use a random \
       clustered netlist."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"NETLIST" ~doc)
  in
  let run file seed =
    runtime_guard @@ fun () ->
    let rng = Gbisect.Rng.create ~seed in
    let netlist =
      match file with
      | Some path when Filename.check_suffix path ".hgr" ->
          let ic = open_in path in
          let s =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Gbisect.Netlist_io.of_hmetis_string s
      | Some path -> Gbisect.Netlist_io.read path
      | None ->
          Gbisect.Random_netlist.generate rng Gbisect.Random_netlist.default_params
    in
    Format.printf "%a@." Gbisect.Hgraph.pp netlist;
    (* True-objective FM. *)
    let side, stats = Gbisect.Hfm.run rng netlist in
    Printf.printf "hypergraph FM:   net cut %d (from %d, %d passes)\n"
      (Gbisect.Hgraph.cut_size netlist side)
      stats.Gbisect.Hfm.initial_cut stats.Gbisect.Hfm.passes;
    (* Clique expansion + the paper's CKL, evaluated on the true objective. *)
    let clique = Gbisect.Expansion.clique netlist in
    let b, _ = Gbisect.Compaction.ckl rng clique in
    Printf.printf "clique + CKL:    net cut %d (graph cut %d)\n"
      (Gbisect.Hgraph.cut_size netlist (Gbisect.Bisection.sides b))
      (Gbisect.Bisection.cut b)
  in
  let info =
    Cmd.info "netlist" ~doc:"Bisect a hypergraph netlist (true net-cut objective)."
  in
  Cmd.v info Term.(const run $ file $ seed_term)

(* ------------------------------------------------------------------ *)
(* table                                                               *)

(* The BENCH_parallel.json probe: time each selected table, then the xsa
   and race-portfolio probes on one 20k-vertex Gnp instance, at --jobs 1
   and at --jobs N. A probe cut that moves with the job count breaks the
   determinism contract: exit 1 and write no artifact. *)
let parallel_bench profile selected file =
  let module Json = Gbisect.Obs.Json in
  let jobs = Gbisect.Pool.jobs () in
  let timed j f =
    Gbisect.Pool.set_jobs j;
    let t0 = Gbisect.Obs.Clock.now () in
    let v = f () in
    (Gbisect.Obs.Clock.now () -. t0, v)
  in
  let domains = Domain.recommended_domain_count () in
  let row id f =
    let seq, v1 = timed 1 f in
    let par, vn = timed jobs f in
    let r = Gbisect.Obs.Proc.parallel_row ~domains ~id ~sequential:seq ~parallel:par in
    Printf.eprintf "gbisect: %s sequential %.2fs, parallel(%d) %.2fs%s\n%!" id seq jobs par
      (match List.assoc_opt "speedup" r with
      | Some (Json.Float s) -> Printf.sprintf ", speedup %.2fx" s
      | _ -> "");
    (v1, vn, r)
  in
  let tables =
    List.map
      (fun (e : Gbisect.Registry.experiment) ->
        let _, _, r = row e.id (fun () -> ignore (e.run profile)) in
        Json.Obj r)
      selected
  in
  let g = Gbisect.Gnp.generate (Gbisect.Rng.create ~seed:90210) ~n:20_000 ~p:(8.0 /. 19_999.) in
  let probe id cut =
    let c1, cn, r = row id (fun () -> cut (Gbisect.Rng.create ~seed:7)) in
    if c1 <> cn then
      failwith
        (Printf.sprintf "parallel bench: %s cut %d at --jobs 1 but %d at --jobs %d" id c1 cn
           jobs);
    Json.Obj (r @ [ ("cut", Json.Int c1); ("identical", Json.Bool true) ])
  in
  let xsa =
    probe "xsa" (fun rng ->
        Gbisect.Bisection.cut (Gbisect.solve ~algorithm:`Xsa ~starts:1 rng g).bisection)
  in
  let race = probe "race-portfolio" (fun rng -> (Gbisect.race rng g).winner.cut) in
  Gbisect.Pool.set_jobs jobs;
  write_output file
    (Json.to_string
       (Gbisect.Obs.Proc.artifact ~suite:"parallel"
          [
            ("jobs", Json.Int jobs);
            ("profile", Json.String profile.Gbisect.Profile.name);
            ("tables", Json.List tables);
            ("probes", Json.List [ xsa; race ]);
          ])
    ^ "\n")

let table_cmd =
  let ids =
    let doc = "Experiment ids (use --list to enumerate); none runs every table." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let list =
    let doc = "List all experiment ids and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let profile =
    let doc = "Profile: smoke, quick or paper (full scale)." in
    Arg.(value & opt string "quick" & info [ "profile" ] ~docv:"NAME" ~doc)
  in
  let store =
    let doc =
      "Crash-safe result store: persist every (row, replicate) cell under $(docv) as \
       it completes and reuse stored cells on re-runs, so an interrupted run resumed \
       against the same store reproduces the uninterrupted table byte for byte."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let resume =
    let doc =
      "Require that --store $(b,DIR) already exists (guards against a mistyped path \
       silently starting a cold run)."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let no_cache =
    let doc =
      "With --store: recompute everything (ignore stored cells) while still \
       persisting fresh results."
    in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let out =
    let doc =
      "Also write $(docv)/ID.txt per table, $(docv)/telemetry.jsonl (one JSON record \
       per algorithm run) and $(docv)/metrics.json (counters)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let parallel_bench_file =
    let doc =
      "After the run, time each selected table and the xsa and race-portfolio probes \
       at --jobs 1 and at --jobs N, and write the schema-versioned artifact to \
       $(docv) (results/BENCH_parallel.json). Exits 1 if a probe's cut differs \
       between the two job counts."
    in
    Arg.(value & opt (some string) None & info [ "parallel-bench" ] ~docv:"FILE" ~doc)
  in
  let run ids list profile trace metrics jobs store resume no_cache out bench_file =
    apply_jobs jobs;
    if list then
      List.iter
        (fun e ->
          Printf.printf "%-18s %s — %s\n" e.Gbisect.Registry.id e.Gbisect.Registry.paper_ref
            e.Gbisect.Registry.description)
        Gbisect.Registry.all
    else begin
      (match store with
      | None when resume -> usage_error "--resume requires --store DIR"
      | None when no_cache -> usage_error "--no-cache requires --store DIR"
      | Some _ when bench_file <> None ->
          usage_error "--parallel-bench times live runs and cannot be combined with --store"
      | Some dir when resume && not (Gbisect.Store.exists dir) ->
          usage_error
            (Printf.sprintf "--resume: no result store at %S (a first run with --store \
                             creates it)" dir)
      | _ -> ());
      let profile =
        match Gbisect.Profile.by_name profile with
        | Some p -> p
        | None -> usage_error (Printf.sprintf "unknown profile %S" profile)
      in
      let selected =
        match ids with
        | [] -> Gbisect.Registry.all
        | ids ->
            List.map
              (fun id ->
                match Gbisect.Registry.find id with
                | Some e -> e
                | None -> usage_error (Printf.sprintf "unknown experiment %S (try --list)" id))
              ids
      in
      runtime_guard @@ fun () ->
      let out_file name = Option.map (fun dir -> Filename.concat dir name) out in
      Option.iter (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755) out;
      let s =
        Option.map
          (fun dir ->
            Gbisect.Obs.Metrics.set_enabled true;
            let s = Gbisect.Store.open_store ~readable:(not no_cache) dir in
            Gbisect.Store.set_current (Some s);
            s)
          store
      in
      (* Records arrive in completion order, which depends on --jobs.
         The writer runs under Telemetry's emit mutex, so appends from
         pool workers are serialised; the file is written sorted when
         the run ends. *)
      let telemetry =
        Option.map
          (fun path ->
            Gbisect.Obs.Metrics.set_enabled true;
            let oc = open_out path in
            let records = ref [] in
            Gbisect.Obs.Telemetry.set_writer (Some (fun r -> records := r :: !records));
            (oc, records))
          (out_file "telemetry.jsonl")
      in
      Fun.protect
        ~finally:(fun () ->
          Option.iter
            (fun (oc, records) ->
              Gbisect.Obs.Telemetry.set_writer None;
              List.iter
                (Gbisect.Obs.Telemetry.to_channel oc)
                (List.sort Gbisect.Obs.Telemetry.compare_by_labels !records);
              close_out oc)
            telemetry;
          match s with
          | Some s ->
              Gbisect.Store.set_current None;
              Gbisect.Store.close s;
              let st = Gbisect.Store.stats s in
              Printf.eprintf "gbisect: result store %s: %d hits, %d misses, %d written%s\n"
                (Gbisect.Store.dir s) st.Gbisect.Store.hits st.Gbisect.Store.misses
                st.Gbisect.Store.writes
                (if st.Gbisect.Store.dropped > 0 then
                   Printf.sprintf " (%d corrupt records dropped)" st.Gbisect.Store.dropped
                 else "")
          | None -> ())
        (fun () ->
          with_obs ~trace ~metrics (fun () ->
              (* Tables fan out over the pool and come back in the
                 order asked for. *)
              List.iter
                (fun ((e : Gbisect.Registry.experiment), table, seconds) ->
                  Printf.printf "=== %s — %s ===\n%s\n%!" e.id e.paper_ref table;
                  Printf.eprintf "gbisect: %s generated in %.1fs\n%!" e.id seconds;
                  Option.iter (fun path -> write_output path table) (out_file (e.id ^ ".txt")))
                (Gbisect.Registry.run_selected profile selected)));
      Option.iter
        (fun path ->
          write_output path
            (Gbisect.Obs.Json.to_string (Gbisect.Obs.Metrics.snapshot_json ()) ^ "\n"))
        (out_file "metrics.json");
      Option.iter (parallel_bench profile selected) bench_file
    end
  in
  let info =
    Cmd.info "table"
      ~doc:
        "Regenerate the paper's tables and figures, every one by default. Stdout holds \
         only the tables, byte-identical at any --jobs; timings go to stderr."
  in
  Cmd.v info
    Term.(
      const run $ ids $ list $ profile $ trace_term $ metrics_term $ jobs_term $ store
      $ resume $ no_cache $ out $ parallel_bench_file)

(* ------------------------------------------------------------------ *)
(* demo                                                                *)

let demo_cmd =
  let run seed output =
    (* Figure 3 of the paper: "an example of a ladder graph". We draw a
       small ladder, bisect it with CKL, and emit DOT with the cut
       highlighted. *)
    let graph = Gbisect.Classic.ladder 8 in
    let rng = Gbisect.Rng.create ~seed in
    let result = Gbisect.solve ~algorithm:`Ckl rng graph in
    write_output output
      (Gbisect.Graph_io.to_dot
         ~highlight_cut:(Gbisect.Bisection.sides result.Gbisect.bisection)
         graph);
    Printf.eprintf "ladder 2x8, CKL cut %d (optimal 2)\n"
      (Gbisect.Bisection.cut result.Gbisect.bisection)
  in
  let info = Cmd.info "demo" ~doc:"Figure 3: ladder graph with its bisection (DOT)." in
  Cmd.v info Term.(const run $ seed_term $ output_term)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let fuzz_cmd =
  let runs_term =
    let doc = "Number of generated cases to check." in
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let replay_term =
    let doc =
      "Re-check the single case with this replay seed (as printed in a finding) \
       instead of fuzzing; reproduces the finding byte-for-byte."
    in
    Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"SEED" ~doc)
  in
  let json_term =
    let doc = "Emit the report as one-line JSON on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let broken_term =
    let doc =
      "Add the deliberately broken oracle fixture to the suite (CI fault injection: \
       the run must then find and shrink a counterexample and exit 1)."
    in
    Arg.(value & flag & info [ "broken-oracle" ] ~doc)
  in
  let run runs seed replay json broken metrics jobs =
    apply_jobs jobs;
    if runs < 1 then usage_error "--runs expects a positive integer";
    runtime_guard @@ fun () ->
    with_obs ~trace:None ~metrics (fun () ->
        let report =
          match replay with
          | Some s -> Gbisect.Fuzz.replay ~broken ~seed:s ()
          | None -> Gbisect.Fuzz.run ~broken ~runs ~seed ()
        in
        if json then print_endline (Gbisect.Obs.Json.to_string (Gbisect.Fuzz.to_json report))
        else print_string (Gbisect.Fuzz.render report);
        match report.Gbisect.Fuzz.findings with
        | [] -> ()
        | fs ->
            Printf.eprintf "gbisect: fuzz: %d finding(s); replay with --replay\n"
              (List.length fs);
            exit 1)
  in
  let info =
    Cmd.info "fuzz"
      ~doc:
        "Deterministic property fuzzing: generate adversarial graphs from a seed, \
         cross-check every solver and data structure against reference oracles \
         (naive cut recomputation, exact optimum on small graphs, gain accounting, \
         compaction cut correspondence, codec round-trips), and shrink any \
         violation to a tiny replayable counterexample. Exits 0 when all checks \
         pass, 1 on findings, 2 on usage errors. Results are identical at any \
         --jobs value."
  in
  Cmd.v info
    Term.(
      const run $ runs_term $ seed_term $ replay_term $ json_term $ broken_term
      $ metrics_term $ jobs_term)

(* ------------------------------------------------------------------ *)
(* perf                                                                *)

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let perf_cmd =
  let runs_term =
    let doc = "Timed runs per bench; the point estimate is the fastest (min-of-k)." in
    Arg.(value & opt int 5 & info [ "runs" ] ~docv:"K" ~doc)
  in
  let out_term =
    let doc =
      "Write the schema-versioned JSON artifact to $(docv) (the committed baseline \
       is results/BENCH_core.json; see EXPERIMENTS.md for the refresh procedure)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let baseline_term =
    let doc = "Baseline artifact for --check." in
    Arg.(
      value
      & opt string "results/BENCH_core.json"
      & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let check_term =
    let doc =
      "Compare against --baseline and print an ascii delta report. Allocation \
       regressions beyond --tolerance are failures (exit 1): allocs/op is \
       deterministic, so drift is a real code change. Time regressions only warn \
       (the band widens to 3 MADs of this run's spread on noisy hosts)."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let tolerance_term =
    let doc = "Relative tolerance for --check (default 0.05 = 5%)." in
    Arg.(value & opt float 0.05 & info [ "tolerance" ] ~docv:"FRACTION" ~doc)
  in
  let json_term =
    let doc = "Print the artifact as one-line JSON on stdout instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run runs out baseline check tolerance json =
    if runs < 1 then usage_error "--runs expects a positive integer";
    if tolerance <= 0. then usage_error "--tolerance expects a positive fraction";
    runtime_guard @@ fun () ->
    let scratch =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "gbisect-perf-%d" (Unix.getpid ()))
    in
    if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o700;
    let result =
      Fun.protect
        ~finally:(fun () -> rm_rf scratch)
        (fun () -> Gbisect.Perf_suite.run ~runs ~scratch ())
    in
    let artifact = Gbisect.Perf_suite.to_json result in
    (match out with
    | None -> ()
    | Some path -> write_output path (Gbisect.Obs.Json.to_string artifact ^ "\n"));
    if check then begin
      let parsed =
        try Gbisect.Obs.Json.of_string (read_file baseline)
        with Failure msg ->
          failwith (Printf.sprintf "baseline %s: %s" baseline msg)
      in
      let verdict =
        Gbisect.Perf_suite.check ~tolerance ~baseline:parsed result
      in
      print_string verdict.Gbisect.Perf_suite.report;
      if verdict.Gbisect.Perf_suite.failures > 0 then begin
        Printf.eprintf
          "gbisect: perf: %d deterministic metric(s) regressed beyond tolerance \
           (refresh results/BENCH_core.json if intended)\n"
          verdict.Gbisect.Perf_suite.failures;
        exit 1
      end
    end
    else if json then print_endline (Gbisect.Obs.Json.to_string artifact)
    else print_string (Gbisect.Perf_suite.render result)
  in
  let info =
    Cmd.info "perf"
      ~doc:
        "Run the seeded micro-benchmark suite over the hot kernels (KL/FM passes, \
         SA plateau, gain buckets, matching+contraction, CSR build, store round \
         trip, fuzz generation, a served request's text path) and optionally gate \
         against the committed baseline. \
         Inputs derive from fixed seeds, so allocs/op is bit-reproducible and \
         hard-gated; timings are min-of-k and warn-only. Exits 0 when clean, 1 on \
         an allocation regression, 2 on usage errors."
  in
  Cmd.v info
    Term.(
      const run $ runs_term $ out_term $ baseline_term $ check_term
      $ tolerance_term $ json_term)

(* ------------------------------------------------------------------ *)
(* scale                                                               *)

let scale_cmd =
  let n_term =
    let doc = "Vertices of the Gnp instance (ignored with --grid)." in
    Arg.(value & opt int 1_000_000 & info [ "n"; "vertices" ] ~docv:"INT" ~doc)
  in
  let degree_term =
    let doc = "Average degree of the Gnp instance." in
    Arg.(value & opt float 4.0 & info [ "degree" ] ~docv:"FLOAT" ~doc)
  in
  let grid_term =
    let doc = "Use a ROWSxCOLS grid instead of Gnp." in
    Arg.(
      value & opt (some (pair ~sep:'x' int int)) None & info [ "grid" ] ~docv:"RxC" ~doc)
  in
  let scale_ids =
    List.filter_map
      (fun (e : Gbisect.Algo.entry) ->
        Option.map (fun _ -> e.id) (Gbisect.Scale_suite.of_registry e.algorithm))
      Gbisect.Algo.all
    |> String.concat ", "
  in
  let algorithm_term =
    let doc = "Solver: " ^ scale_ids ^ "." in
    Arg.(value & opt algorithm_conv `Mlfm & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)
  in
  let ml_term =
    let refine_passes =
      ml_flag "refine-passes" (fun m -> m.refine_passes) ~least:1
        "Per-level refinement pass cap for the multilevel solvers (unbounded \
         refinement is superlinear in the instance size for <2% extra cut)."
    in
    let ml min_vertices max_levels refine_passes =
      { Gbisect.Algo.min_vertices; max_levels; refine_passes }
    in
    Term.(const ml $ ml_min_vertices $ ml_max_levels $ refine_passes)
  in
  let out_term =
    let doc =
      "Write the schema-versioned JSON artifact to $(docv) (the committed baseline \
       is results/BENCH_scale.json)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let json_term =
    let doc = "Print the artifact as one-line JSON on stdout instead of a summary." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run n degree grid algorithm (ml : Gbisect.Algo.ml) max_rss out json seed =
    let algorithm =
      match Gbisect.Scale_suite.of_registry algorithm with
      | Some a -> a
      | None ->
          usage_error
            (Printf.sprintf "algorithm %S does not scale (%s)" (Gbisect.Algo.id algorithm)
               scale_ids)
    in
    if n < 2 then usage_error "--n expects at least 2 vertices";
    if degree <= 0. then usage_error "--degree expects a positive average degree";
    runtime_guard @@ fun () ->
    let model =
      match grid with
      | Some (rows, cols) -> Gbisect.Scale_suite.Grid { rows; cols }
      | None -> Gbisect.Scale_suite.Gnp { n; avg_degree = degree }
    in
    let result = Gbisect.Scale_suite.run ~ml ~algorithm ~seed model in
    (match out with
    | None -> ()
    | Some path ->
        write_output path
          (Gbisect.Obs.Json.to_string (Gbisect.Scale_suite.to_json result) ^ "\n"));
    if json then
      print_endline (Gbisect.Obs.Json.to_string (Gbisect.Scale_suite.to_json result))
    else print_endline (Gbisect.Scale_suite.render result);
    check_max_rss max_rss result.Gbisect.Scale_suite.peak_rss_bytes;
    if not result.Gbisect.Scale_suite.balanced then
      failwith "scale solve produced an unbalanced bisection"
  in
  let info =
    Cmd.info "scale"
      ~doc:
        "Build one large synthetic instance (Gnp by default, --grid for meshes), \
         bisect it with a scale-suitable solver, and report end-to-end throughput \
         and peak RSS as the schema-versioned BENCH_scale artifact. Exits 0 on a \
         balanced result within the optional --max-rss budget, 1 otherwise."
  in
  Cmd.v info
    Term.(
      const run $ n_term $ degree_term $ grid_term $ algorithm_term $ ml_term
      $ max_rss_term $ out_term $ json_term $ seed_term)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let addr_pos_term =
  let doc =
    "Socket to serve on / connect to: unix:PATH, tcp:HOST:PORT, or a bare PATH \
     (taken as a Unix socket)."
  in
  Arg.(value & pos 0 string "gbisect.sock" & info [] ~docv:"ADDR" ~doc)

let parse_addr_or_usage s =
  match Gbisect.Serve.parse_addr s with
  | Ok a -> a
  | Error msg -> usage_error msg

let serve_cmd =
  let queue_term =
    let doc =
      "Job queue capacity; a solve arriving on a full queue is refused with an \
       $(b,overloaded) error (the backpressure contract, see SERVING.md)."
    in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_frame_term =
    let doc = "Maximum request-line bytes; longer lines get a $(b,too_large) error." in
    Arg.(value & opt int (8 * 1024 * 1024) & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let starts_cap_term =
    let doc = "Maximum starts a single job may request." in
    Arg.(value & opt int 512 & info [ "starts-cap" ] ~docv:"N" ~doc)
  in
  let store_term =
    let doc =
      "Directory for the content-addressed result cache (created if missing; \
       persists across restarts). Default: a throwaway cache under the temp \
       directory, deleted on exit."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let no_cache_term =
    let doc = "Disable the result cache entirely (every repeat query recomputes)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let run addr queue max_frame starts_cap store no_cache trace metrics jobs =
    apply_jobs jobs;
    if queue < 1 then usage_error "--queue expects a positive integer";
    if max_frame < 1024 then usage_error "--max-frame expects at least 1024 bytes";
    if starts_cap < 1 then usage_error "--starts-cap expects a positive integer";
    if no_cache && store <> None then usage_error "--no-cache conflicts with --store";
    let addr = parse_addr_or_usage addr in
    runtime_guard @@ fun () ->
    with_obs ~trace ~metrics @@ fun () ->
    let stopping = Atomic.make false in
    let flip = Sys.Signal_handle (fun _ -> Atomic.set stopping true) in
    Sys.set_signal Sys.sigterm flip;
    Sys.set_signal Sys.sigint flip;
    (* A client that disconnects mid-response must cost EPIPE, not kill
       the daemon. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let temp_store = ref None in
    let store_t =
      if no_cache then None
      else begin
        let dir =
          match store with
          | Some dir -> dir
          | None ->
              let dir =
                Filename.concat (Filename.get_temp_dir_name ())
                  (Printf.sprintf "gbisect-serve-%d" (Unix.getpid ()))
              in
              temp_store := Some dir;
              dir
        in
        Some (Gbisect.Store.open_store ~readable:true dir)
      end
    in
    Fun.protect
      ~finally:(fun () ->
        Option.iter Gbisect.Store.close store_t;
        Option.iter rm_rf !temp_store)
      (fun () ->
        let config =
          {
            Gbisect.Serve.queue_capacity = queue;
            max_frame;
            starts_cap;
            store = store_t;
            log = (fun msg -> Printf.eprintf "serve: %s\n%!" msg);
          }
        in
        let server = Gbisect.Serve.create config in
        let final =
          Gbisect.Serve.serve ~stop:(fun () -> Atomic.get stopping) server addr
        in
        Printf.eprintf
          "serve: final: %d requests, %d solved, %d cache hits, %d errors (%d \
           overloaded)\n\
           %!"
          final.Gbisect.Serve_protocol.requests final.Gbisect.Serve_protocol.solved
          final.Gbisect.Serve_protocol.cache_hits final.Gbisect.Serve_protocol.errors
          final.Gbisect.Serve_protocol.overloaded)
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the bisection daemon: accept newline-delimited JSON solve jobs over a \
         Unix or TCP socket, schedule them onto the ambient --jobs pool, answer \
         repeat queries from the result cache, and shed load with explicit \
         overloaded errors when the bounded queue is full. Stops cleanly on \
         SIGTERM/SIGINT or a shutdown request. The wire protocol, error codes and \
         operational guide are in SERVING.md. Exits 0 on clean shutdown, 1 on \
         runtime failure (e.g. address in use), 2 on usage errors."
  in
  Cmd.v info
    Term.(
      const run $ addr_pos_term $ queue_term $ max_frame_term $ starts_cap_term
      $ store_term $ no_cache_term $ trace_term $ metrics_term $ jobs_term)

(* ------------------------------------------------------------------ *)
(* bombard                                                             *)

let bombard_cmd =
  let requests_term =
    let doc = "Total solve requests to issue." in
    Arg.(value & opt int 200 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let concurrency_term =
    let doc = "Concurrent connections (one request in flight on each)." in
    Arg.(value & opt int 8 & info [ "c"; "concurrency" ] ~docv:"N" ~doc)
  in
  let repeat_term =
    let doc =
      "Fraction of requests that replay an earlier job byte-for-byte (these should \
       hit the daemon's result cache)."
    in
    Arg.(value & opt float 0.3 & info [ "repeat" ] ~docv:"FRACTION" ~doc)
  in
  let starts_term =
    starts_term ~default:1 ~docv:"K" "Best-of-k starts attached to every job."
  in
  let timeout_term =
    let doc = "Per-response deadline in seconds before a connection is declared dead." in
    Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let out_term =
    let doc =
      "Write the schema-versioned JSON artifact to $(docv) (the committed snapshot \
       is results/BENCH_serve.json; see EXPERIMENTS.md for the refresh procedure)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let json_term =
    let doc = "Print the artifact as one-line JSON on stdout instead of a summary." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run addr requests concurrency repeat starts timeout out json seed =
    if requests < 1 then usage_error "--requests expects a positive integer";
    if concurrency < 1 then usage_error "--concurrency expects a positive integer";
    if not (repeat >= 0.0 && repeat <= 1.0) then
      usage_error "--repeat expects a fraction within [0,1]";
    if timeout <= 0.0 then usage_error "--timeout expects a positive number of seconds";
    let addr = parse_addr_or_usage addr in
    runtime_guard @@ fun () ->
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* The daemon refuses graphs of fewer than 2 vertices; skip them. *)
    let make_case ~seed =
      match Gbisect.Fuzz_generators.generate ~seed with
      | { graph; _ } when Gbisect.Graph.n_vertices graph < 2 -> None
      | { family; graph; _ } -> Some (family, graph)
    in
    let params =
      {
        Gbisect.Bombard.requests;
        concurrency;
        repeat_ratio = repeat;
        starts;
        seed;
        timeout_seconds = timeout;
      }
    in
    let outcome =
      Gbisect.Bombard.run
        ~log:(fun msg -> Printf.eprintf "bombard: %s\n%!" msg)
        ~make_case params addr
    in
    let artifact = Gbisect.Obs.Json.to_string (Gbisect.Bombard.to_json outcome) in
    (match out with None -> () | Some path -> write_output path (artifact ^ "\n"));
    if json then print_endline artifact
    else print_string (Gbisect.Bombard.render outcome);
    if outcome.Gbisect.Bombard.errors > 0 then begin
      Printf.eprintf "gbisect: bombard: %d request(s) failed\n"
        outcome.Gbisect.Bombard.errors;
      exit 1
    end
  in
  let info =
    Cmd.info "bombard"
      ~doc:
        "Load-test a running gbisect serve daemon with a seeded, reproducible \
         request mix drawn from the fuzz-corpus graph families, including a \
         configurable repeat-query ratio that exercises the daemon's result cache. \
         Reports throughput, latency percentiles and cache hit rate, optionally as \
         the schema-versioned results/BENCH_serve.json artifact. Exits 0 when every \
         request got a well-formed response (overloaded replies count as responses), \
         1 on failed requests or transport errors, 2 on usage errors."
  in
  Cmd.v info
    Term.(
      const run $ addr_pos_term $ requests_term $ concurrency_term $ repeat_term
      $ starts_term $ timeout_term $ out_term $ json_term $ seed_term)

let main_cmd =
  let info =
    Cmd.info "gbisect" ~version:"1.0.0"
      ~doc:"Graph bisection: Kernighan-Lin, simulated annealing, and compaction (DAC'89)."
  in
  Cmd.group info
    [
      gen_cmd;
      solve_cmd;
      race_cmd;
      kway_cmd;
      netlist_cmd;
      table_cmd;
      demo_cmd;
      fuzz_cmd;
      perf_cmd;
      scale_cmd;
      serve_cmd;
      bombard_cmd;
    ]

let () =
  (* Spans, telemetry, table time columns, benchmark artifacts and the
     daemon's latencies all read Gb_obs.Clock: give them elapsed time,
     not the library default of CPU time. *)
  (* lint: allow no-wall-clock — the one place the CLI installs the real clock, before any command runs *)
  Gbisect.Obs.Clock.set Unix.gettimeofday;
  (* Cmdliner's stock exit codes are 124 (cli error) and 125 (internal
     error); fold them onto the documented contract: 2 = usage, 1 =
     runtime failure. *)
  exit
    (match Cmd.eval main_cmd with
    | 124 -> 2
    | 125 -> 1
    | code -> code)
