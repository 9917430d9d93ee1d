(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (via Gbisect.Registry) and runs one Bechamel timing probe
   per table.

   Usage:
     dune exec bench/main.exe                     # all tables, quick profile
     dune exec bench/main.exe -- --profile paper  # full paper scale
     dune exec bench/main.exe -- gbreg-5000-d3 obs1
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --no-bechamel    # skip timing probes

   Absolute numbers are machine-dependent; the shapes (who wins, by what
   factor, where the degree-3/degree-4 crossover falls) are the paper's
   claims — see EXPERIMENTS.md. *)

module Registry = Gbisect.Registry
module Profile = Gbisect.Profile
module Rng = Gbisect.Rng
module Obs = Gbisect.Obs
module Pool = Gbisect.Pool
module Store = Gbisect.Store

let usage () =
  print_endline
    "usage: main.exe [--profile smoke|quick|paper] [--jobs N] [--list] [--no-bechamel] \
     [--out DIR] [--trace FILE] [--store DIR] [--resume] [--no-cache] \
     [--parallel-bench FILE] [ids...]\n\n\
     --jobs N     domains for the parallel fan-out points (default: all cores;\n\
    \             1 = sequential). Tables are bit-identical at any N, see\n\
    \             PARALLELISM.md\n\
     --out DIR    also write per-table text files, DIR/telemetry.jsonl (one JSON\n\
    \             record per algorithm run) and DIR/metrics.json (counters)\n\
     --trace FILE write Chrome trace_event JSON lines (load in Perfetto)\n\
     --store DIR  crash-safe result store: every (row, replicate) cell is\n\
    \             persisted as it completes and reused on re-runs, so an\n\
    \             interrupted run resumed against the same store reproduces\n\
    \             the uninterrupted output byte for byte (see DESIGN.md)\n\
     --resume     require that --store DIR already exists (guards against a\n\
    \             mistyped path silently starting a cold run)\n\
     --no-cache   with --store: recompute everything (ignore stored cells)\n\
    \             while still persisting fresh results\n\
     --parallel-bench FILE  time each selected table at --jobs 1 vs --jobs N and\n\
    \             write the sequential/parallel wall-clock and speedup as JSON\n\
    \             (the BENCH_parallel.json probe)"

(* ------------------------------------------------------------------ *)
(* Bechamel probes: one Test.make per table. Each probe times the
   algorithm mix the table exercises on a small representative instance
   (pre-generated outside the staged thunk).                            *)

let probe_graph id =
  let rng = Rng.create ~seed:(Rng.seed_of_string ("probe/" ^ id)) in
  (* Model instances come through the fuzz corpus constructors
     (Gb_check.Generators), so the bench probes and the fuzzer can
     never drift apart on how a paper-model graph is built. *)
  let gbreg two_n b d = Gbisect.Fuzz_generators.gbreg_instance rng ~two_n ~b ~d in
  let g2set avg =
    Gbisect.Fuzz_generators.g2set_instance rng ~two_n:500 ~avg_degree:avg ~bis:8
  in
  match id with
  | "table1" | "grid" -> Gbisect.Classic.grid_of_side 22
  | "ladder" -> Gbisect.Classic.ladder 250
  | "tree" -> Gbisect.Classic.binary_tree ~depth:8
  | "gnp-5000" | "gnp-2000" ->
      Gbisect.Gnp.with_average_degree rng ~n:500 ~avg_degree:3.0
  | "g2set-5000-d2.5" | "g2set-2000-d2.5" -> g2set 2.5
  | "g2set-5000-d3" | "g2set-2000-d3" -> g2set 3.0
  | "g2set-5000-d3.5" | "g2set-2000-d3.5" -> g2set 3.5
  | "g2set-5000-d4" | "g2set-2000-d4" -> g2set 4.0
  | "gbreg-5000-d3" | "gbreg-2000-d3" | "obs2" -> gbreg 500 8 3
  | "gbreg-5000-d4" | "gbreg-2000-d4" | "obs1" -> gbreg 500 8 4
  | "obs4" | "ablate-matching" | "ablate-levels" | "baseline-spectral" | "figures" ->
      gbreg 500 8 3
  | "geometric" ->
      Gbisect.Geometric.generate rng ~n:500
        ~radius:(Gbisect.Geometric.radius_for_average_degree ~n:500 ~avg_degree:6.0)
  | "netlist" ->
      (* probe the clique expansion of a clustered netlist *)
      Gbisect.Expansion.clique
        (Gbisect.Random_netlist.generate rng Gbisect.Random_netlist.default_params)
  | _ -> Gbisect.Classic.grid_of_side 16

let probe_thunk id =
  let g = probe_graph id in
  let algorithm : Gbisect.algorithm =
    (* Time the algorithm the table is really about: compaction tables
       probe CKL; the SA-heavy head-to-heads probe SA; default KL. *)
    match id with
    | "obs4" -> `Sa
    | "table1" | "ladder" | "grid" | "tree" -> `Ckl
    | "ablate-levels" -> `Multilevel
    | _ -> `Ckl
  in
  let seed = Rng.seed_of_string ("probe-run/" ^ id) in
  fun () ->
    let rng = Rng.create ~seed in
    ignore (Gbisect.solve ~algorithm ~starts:1 rng g)

let run_bechamel ids =
  let open Bechamel in
  let tests =
    List.map (fun id -> Test.make ~name:id (Staged.stage (probe_thunk id))) ids
  in
  let grouped = Test.make_grouped ~name:"tables" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  print_endline "Bechamel timing probes (one per table; ns per solved instance):";
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> Printf.sprintf "%13.0f" t
          | _ -> "n/a"
        in
        (name, est) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (name, est) -> Printf.printf "  %-28s %s ns/run\n" name est) rows;
  print_newline ()

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* The BENCH_parallel.json probe: time each selected table sequentially
   (--jobs 1) and on the full pool, report wall-clock and speedup. Runs
   after the telemetry writer is detached so the probe repeats don't
   pollute telemetry.jsonl.                                            *)

let timing_row id seq par =
  [
    ("id", Obs.Json.String id);
    ("sequential_s", Obs.Json.Float seq);
    ("parallel_s", Obs.Json.Float par);
    ("speedup", Obs.Json.Float (seq /. par));
  ]

let run_parallel_bench profile selected jobs file =
  let time_with j e =
    Pool.set_jobs j;
    (* lint: allow no-wall-clock — the parallel bench measures real elapsed time by design *)
    let t0 = Unix.gettimeofday () in
    ignore (e.Registry.run profile);
    (* lint: allow no-wall-clock — the parallel bench measures real elapsed time by design *)
    Unix.gettimeofday () -. t0
  in
  let rows =
    List.map
      (fun e ->
        let seq = time_with 1 e in
        let par = time_with jobs e in
        Printf.printf "  %-18s sequential %.2fs  parallel(%d) %.2fs  speedup %.2fx\n"
          e.Registry.id seq jobs par (seq /. par);
        flush stdout;
        Obs.Json.Obj (timing_row e.Registry.id seq par))
      selected
  in
  (* Intra-run probes: one 20k-vertex / ~80k-edge instance, timed at
     --jobs 1 vs the full pool. Each probe also re-asserts the
     determinism contract — the cut must be identical at both job
     counts, or the probe row is marked and the bench exits non-zero. *)
  let probe_rows =
    let g =
      Gbisect.Gnp.generate (Gbisect.Rng.create ~seed:90210) ~n:20_000 ~p:(8.0 /. 19_999.)
    in
    let identical = ref true in
    let probe id run =
      let at j =
        Pool.set_jobs j;
        (* lint: allow no-wall-clock — the parallel bench measures real elapsed time by design *)
        let t0 = Unix.gettimeofday () in
        let cut = run (Gbisect.Rng.create ~seed:7) g in
        (* lint: allow no-wall-clock — the parallel bench measures real elapsed time by design *)
        (Unix.gettimeofday () -. t0, cut)
      in
      let seq, cut1 = at 1 in
      let par, cutn = at jobs in
      if cut1 <> cutn then identical := false;
      Printf.printf
        "  %-18s sequential %.2fs  parallel(%d) %.2fs  speedup %.2fx  cut %d%s\n" id
        seq jobs par (seq /. par) cut1
        (if cut1 = cutn then "" else Printf.sprintf " <> %d MISMATCH" cutn);
      flush stdout;
      Obs.Json.Obj
        (timing_row id seq par
        @ [ ("cut", Obs.Json.Int cut1); ("identical", Obs.Json.Bool (cut1 = cutn)) ])
    in
    let xsa_row =
      probe "xsa" (fun rng g ->
          Gbisect.Bisection.cut
            (Gbisect.solve ~algorithm:`Xsa ~starts:1 rng g).Gbisect.bisection)
    in
    let race_row =
      probe "race-portfolio" (fun rng g ->
          (Gbisect.race rng g).Gbisect.Race.winner.Gbisect.Race.cut)
    in
    let rows = [ xsa_row; race_row ] in
    if not !identical then (
      prerr_endline "bench: FATAL: a parallel probe broke --jobs byte-identity";
      exit 1);
    rows
  in
  Pool.set_jobs jobs;
  let artifact =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int Gbisect.Perf_suite.schema_version);
        ("host", Obs.Json.Obj (Obs.Proc.host ()));
        ("jobs", Obs.Json.Int jobs);
        ("recommended_domains", Obs.Json.Int (Domain.recommended_domain_count ()));
        ("profile", Obs.Json.String profile.Profile.name);
        ("tables", Obs.Json.List rows);
        ("probes", Obs.Json.List probe_rows);
      ]
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string artifact);
      output_char oc '\n');
  Printf.printf "parallel bench written to %s\n\n" file

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let profile = ref Profile.quick in
  let bechamel = ref true in
  let out_dir = ref None in
  let trace_file = ref None in
  let parallel_bench = ref None in
  let store_dir = ref None in
  let resume = ref false in
  let no_cache = ref false in
  let ids = ref [] in
  let rec parse = function
    | [] -> ()
    | "--list" :: _ ->
        List.iter
          (fun e -> Printf.printf "%-18s %s\n" e.Registry.id e.Registry.paper_ref)
          Registry.all;
        exit 0
    | "--help" :: _ ->
        usage ();
        exit 0
    | "--no-bechamel" :: rest ->
        bechamel := false;
        parse rest
    | "--out" :: dir :: rest ->
        out_dir := Some dir;
        parse rest
    | "--trace" :: file :: rest ->
        trace_file := Some file;
        parse rest
    | "--parallel-bench" :: file :: rest ->
        parallel_bench := Some file;
        parse rest
    | "--store" :: dir :: rest ->
        store_dir := Some dir;
        parse rest
    | "--resume" :: rest ->
        resume := true;
        parse rest
    | "--no-cache" :: rest ->
        no_cache := true;
        parse rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            Pool.set_jobs n;
            parse rest
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 2)
    | "--profile" :: name :: rest -> (
        match Profile.by_name name with
        | Some p ->
            profile := p;
            parse rest
        | None ->
            Printf.eprintf "unknown profile %S\n" name;
            exit 2)
    | id :: rest ->
        ids := id :: !ids;
        parse rest
  in
  parse args;
  (match !store_dir with
  | None when !resume ->
      prerr_endline "--resume requires --store DIR";
      exit 2
  | None when !no_cache ->
      prerr_endline "--no-cache requires --store DIR";
      exit 2
  | Some dir when !resume && not (Store.exists dir) ->
      Printf.eprintf "--resume: no result store at %S (a first run with --store creates it)\n"
        dir;
      exit 2
  | _ -> ());
  let selected =
    match List.rev !ids with
    | [] -> Registry.all
    | ids ->
        List.map
          (fun id ->
            match Registry.find id with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S (try --list)\n" id;
                exit 2)
          ids
  in
  Printf.printf
    "gbisect benchmark harness — profile %s (scale: 5000 -> %d vertices), %d jobs\n\
     reproducing: Bui, Heigham, Jones & Leighton, DAC 1989\n\n"
    !profile.Profile.name
    (Profile.scaled !profile 5000)
    (Pool.jobs ());
  (* lint: allow no-wall-clock — total wall time is operator feedback, never stored *)
  let t_start = Unix.gettimeofday () in
  (match !out_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  (* Observability: real wall clock for spans, a telemetry stream and a
     metrics dump under --out, a Perfetto-loadable trace under --trace. *)
  (* lint: allow no-wall-clock — the bench installs the real clock into Gb_obs.Clock at startup *)
  Obs.Trace.set_clock Unix.gettimeofday;
  (match !trace_file with
  | Some file -> Obs.Trace.set (Obs.Trace.to_file file)
  | None -> ());
  let store =
    match !store_dir with
    | None -> None
    | Some dir ->
        Obs.Metrics.set_enabled true;
        let s = Store.open_store ~readable:(not !no_cache) dir in
        Store.set_current (Some s);
        Some s
  in
  let telemetry_oc =
    match !out_dir with
    | Some dir ->
        Obs.Metrics.set_enabled true;
        let oc = open_out (Filename.concat dir "telemetry.jsonl") in
        Obs.Telemetry.set_writer (Some (Obs.Telemetry.to_channel oc));
        Some oc
    | None -> None
  in
  (* The telemetry writer is detached before the Bechamel probes so
     their repeats don't pollute telemetry.jsonl; the Fun.protect
     [finally] makes the same teardown run on the exception path, so a
     failing experiment still leaves flushed, closed sinks and a synced
     store behind. *)
  let telemetry_closed = ref false in
  let close_telemetry () =
    match telemetry_oc with
    | Some oc when not !telemetry_closed ->
        telemetry_closed := true;
        Obs.Telemetry.set_writer None;
        close_out oc
    | _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      close_telemetry ();
      Obs.Trace.close ();
      match store with
      | Some s ->
          Store.set_current None;
          Store.close s
      | None -> ())
    (fun () ->
      (* Experiments fan out over the pool; output is buffered per
         experiment and printed here in presentation order. *)
      List.iter
        (fun (e, table, seconds) ->
          Printf.printf "=== %s — %s ===\n%s  [table generated in %.1fs]\n\n"
            e.Registry.id e.Registry.paper_ref table seconds;
          (match !out_dir with
          | Some dir ->
              let oc = open_out (Filename.concat dir (e.Registry.id ^ ".txt")) in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () -> output_string oc table)
          | None -> ());
          flush stdout)
        (Registry.run_selected !profile selected);
      (match store with
      | Some s ->
          let stats = Store.stats s in
          Printf.printf "result store %s: %d hits, %d misses, %d written%s\n\n"
            (Store.dir s) stats.Store.hits stats.Store.misses stats.Store.writes
            (if stats.Store.dropped > 0 then
               Printf.sprintf " (%d corrupt records dropped)" stats.Store.dropped
             else "")
      | None -> ());
      close_telemetry ();
      (match !out_dir with
      | Some dir ->
          let mc = open_out (Filename.concat dir "metrics.json") in
          Fun.protect
            ~finally:(fun () -> close_out mc)
            (fun () ->
              output_string mc (Obs.Json.to_string (Obs.Metrics.snapshot_json ()));
              output_char mc '\n')
      | None -> ());
      if !bechamel then run_bechamel (List.map (fun e -> e.Registry.id) selected);
      (match !parallel_bench with
      | Some file -> run_parallel_bench !profile selected (Pool.jobs ()) file
      | None -> ());
      (* lint: allow no-wall-clock — total wall time is operator feedback, never stored *)
      Printf.printf "total wall time: %.1fs\n" (Unix.gettimeofday () -. t_start))
