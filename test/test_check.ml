(* Tests for the fuzz harness itself (lib/check): generator
   determinism and coverage, clean runs on the repo as-is, fault
   injection through the broken oracle fixture, shrinking quality,
   replay byte-identity, and --jobs stability. *)

module Graph = Gbisect.Graph
module Fuzz = Gbisect.Fuzz
module Generators = Gbisect.Fuzz_generators
module Oracles = Gbisect.Fuzz_oracles
module Shrink = Gbisect.Fuzz_shrink
module Rng = Gbisect.Rng
module Json = Gbisect.Obs.Json
module Trace = Gbisect.Obs.Trace

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let report_string r = Json.to_string (Fuzz.to_json r)

let generator_tests =
  [
    case "equal seeds give structurally equal cases" (fun () ->
        List.iter
          (fun seed ->
            let a = Generators.generate ~seed and b = Generators.generate ~seed in
            Alcotest.(check string) "family" a.Generators.family b.Generators.family;
            check_int "seed" a.Generators.seed b.Generators.seed;
            check_bool "graph" true (Graph.equal a.Generators.graph b.Generators.graph))
          [ 0; 1; 17; 123456789; max_int / 3 ]);
    case "every family appears across 600 seeds" (fun () ->
        let seen = Hashtbl.create 32 in
        for seed = 0 to 599 do
          let c = Generators.generate ~seed in
          Hashtbl.replace seen c.Generators.family ()
        done;
        List.iter
          (fun f ->
            check_bool (Printf.sprintf "family %s generated" f) true
              (Hashtbl.mem seen f))
          Generators.families);
    case "cases are tiny and structurally sound" (fun () ->
        for seed = 0 to 299 do
          let c = Generators.generate ~seed in
          Helpers.check_graph_ok c.Generators.graph;
          check_bool "small" true (Graph.n_vertices c.Generators.graph <= 32)
        done);
    case "edges_repr is parseable back by eye: fixed fixture" (fun () ->
        let g = Graph.of_edges ~n:3 [ (0, 1, 2); (1, 2, 1) ] in
        Alcotest.(check string) "repr" "n=3: 0-1(2) 1-2(1)" (Generators.edges_repr g));
  ]

let oracle_tests =
  [
    case "a clean run over 40 cases finds nothing" (fun () ->
        let r = Fuzz.run ~runs:40 ~seed:11 () in
        check_int "runs" 40 r.Fuzz.runs;
        check_bool "checks happened" true (r.Fuzz.checks > 40);
        check_int "findings" 0 (List.length r.Fuzz.findings));
    case "verify_run accepts a correct bisection" (fun () ->
        let g = Gbisect.Classic.grid ~rows:3 ~cols:4 in
        let b = fst (Gbisect.Kl.run (Helpers.rng ()) g) in
        check_bool "ok" true (Result.is_ok (Oracles.verify_run g b)));
    case "verify_run rejects a bisection from the wrong graph" (fun () ->
        let g = Gbisect.Classic.grid ~rows:3 ~cols:4 in
        let h = Gbisect.Classic.complete 12 in
        let b = fst (Gbisect.Kl.run (Helpers.rng ()) g) in
        (* same vertex count, different edges: the cached cut cannot
           survive a recompute on h *)
        match Oracles.verify_run h b with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "accepted a foreign bisection");
    case "oracle exceptions become findings, not crashes" (fun () ->
        let throwing =
          {
            Oracles.name = "throwing";
            applies = (fun _ -> true);
            check = (fun _ _ -> failwith "boom");
          }
        in
        match Oracles.run throwing ~seed:1 (Graph.empty 2) with
        | Error msg -> check_bool "message kept" true (Helpers.contains msg "boom")
        | Ok () -> Alcotest.fail "exception swallowed");
    case "trace-identity removes its own sink and keeps anyone else's" (fun () ->
        let oracle = List.find (fun o -> o.Oracles.name = "trace-identity") Oracles.all in
        let g = Gbisect.Classic.ladder 8 in
        check_bool "passes without a sink" true (Result.is_ok (Oracles.run oracle ~seed:1 g));
        check_bool "leaves no sink behind" false (Trace.enabled ());
        let buf = Buffer.create 4096 in
        Fun.protect
          ~finally:(fun () -> Trace.set Trace.noop)
          (fun () ->
            Trace.set (Trace.of_writer (Buffer.add_string buf));
            check_bool "passes under a sink" true (Result.is_ok (Oracles.run oracle ~seed:1 g));
            check_bool "the sink is still installed" true (Trace.enabled ());
            check_bool "the runs went to it" true (Buffer.length buf > 0)));
  ]

let broken_tests =
  [
    case "the broken fixture is caught and shrunk to <= 12 vertices" (fun () ->
        let r = Fuzz.run ~broken:true ~runs:15 ~seed:5 () in
        check_bool "found" true (r.Fuzz.findings <> []);
        List.iter
          (fun f ->
            Alcotest.(check string) "oracle" "broken-fixture" f.Fuzz.oracle;
            check_bool "shrunk small" true (Graph.n_vertices f.Fuzz.shrunk <= 12);
            (* the shrunk graph still fails the same oracle *)
            check_bool "still failing" true
              (Result.is_error (Oracles.run Oracles.broken ~seed:f.Fuzz.case.Generators.seed f.Fuzz.shrunk)))
          r.Fuzz.findings);
    case "replay of a reported seed reproduces the finding byte-for-byte"
      (fun () ->
        let r = Fuzz.run ~broken:true ~runs:10 ~seed:5 () in
        match r.Fuzz.findings with
        | [] -> Alcotest.fail "fault injection found nothing"
        | f :: _ ->
            let replayed = Fuzz.replay ~broken:true ~seed:f.Fuzz.case.Generators.seed () in
            let again = Fuzz.replay ~broken:true ~seed:f.Fuzz.case.Generators.seed () in
            Alcotest.(check string)
              "replay is deterministic" (report_string replayed) (report_string again);
            (match replayed.Fuzz.findings with
            | [ f' ] ->
                Alcotest.(check string) "oracle" f.Fuzz.oracle f'.Fuzz.oracle;
                Alcotest.(check string) "message" f.Fuzz.message f'.Fuzz.message;
                Alcotest.(check string) "shrunk graph"
                  (Generators.edges_repr f.Fuzz.shrunk)
                  (Generators.edges_repr f'.Fuzz.shrunk);
                Alcotest.(check string) "shrunk message" f.Fuzz.shrunk_message
                  f'.Fuzz.shrunk_message
            | fs -> Alcotest.failf "replay produced %d findings" (List.length fs)));
    case "findings render a replay line" (fun () ->
        let r = Fuzz.run ~broken:true ~runs:5 ~seed:9 () in
        check_bool "repro line" true
          (Helpers.contains (Fuzz.render r) "gbisect fuzz --replay"));
  ]

let jobs_tests =
  [
    case "reports are bit-identical at --jobs 1 and 4" (fun () ->
        let before = Gbisect.Pool.jobs () in
        Fun.protect
          ~finally:(fun () -> Gbisect.Pool.set_jobs before)
          (fun () ->
            Gbisect.Pool.set_jobs 1;
            let seq = Fuzz.run ~broken:true ~runs:12 ~seed:3 () in
            Gbisect.Pool.set_jobs 4;
            let par = Fuzz.run ~broken:true ~runs:12 ~seed:3 () in
            Alcotest.(check string) "identical" (report_string seq) (report_string par)));
  ]

let metrics_tests =
  [
    case "fuzz.* counters reflect the run" (fun () ->
        let module M = Gbisect.Obs.Metrics in
        M.set_enabled true;
        Fun.protect
          ~finally:(fun () -> M.set_enabled false)
          (fun () ->
            M.reset ();
            let r = Fuzz.run ~broken:true ~runs:8 ~seed:13 () in
            let v name = List.assoc name (M.counters ()) in
            check_int "fuzz.cases" 8 (v "fuzz.cases");
            check_int "fuzz.checks" r.Fuzz.checks (v "fuzz.checks");
            check_int "fuzz.findings" (List.length r.Fuzz.findings) (v "fuzz.findings");
            check_bool "fuzz.shrink_steps counted" true (v "fuzz.shrink_steps" > 0)));
  ]

let shrink_tests =
  [
    case "shrinks any-edge failure to a single edge" (fun () ->
        let check g =
          if Graph.n_edges g >= 1 then Error "has an edge" else Ok ()
        in
        let g, steps = Shrink.minimize ~check (Gbisect.Classic.complete 6) in
        check_int "vertices" 2 (Graph.n_vertices g);
        check_int "edges" 1 (Graph.n_edges g);
        check_bool "steps" true (steps > 0));
    case "passing input is returned unchanged" (fun () ->
        let g0 = Gbisect.Classic.path 5 in
        let g, steps = Shrink.minimize ~check:(fun _ -> Ok ()) g0 in
        check_bool "same graph" true (Graph.equal g g0);
        check_int "no steps" 0 steps);
    case "shrinking respects the oracle's domain gate" (fun () ->
        (* an oracle that fails only on graphs with >= 4 vertices:
           the shrinker must stop at 4, not cross into the passing
           region *)
        let check g = if Graph.n_vertices g >= 4 then Error "big" else Ok () in
        let g, _ = Shrink.minimize ~check (Gbisect.Classic.complete 9) in
        check_int "stops at the boundary" 4 (Graph.n_vertices g));
  ]

let () =
  Alcotest.run "check"
    [
      ("generators", generator_tests);
      ("oracles", oracle_tests);
      ("fault injection", broken_tests);
      ("jobs stability", jobs_tests);
      ("metrics", metrics_tests);
      ("shrink", shrink_tests);
    ]
