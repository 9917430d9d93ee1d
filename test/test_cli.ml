(* Golden exit-code and stderr contract tests for the gbisect CLI and
   gbisect_lint: 0 = success, 1 = runtime failure or findings (exactly
   one "gbisect:" diagnostic line on stderr), 2 = usage error. Both
   binaries are declared dune dependencies of this test. *)

let binary name =
  (* dune runtest executes from the test build directory (the binary
     is a sibling artefact); dune exec runs from the project root. *)
  let candidates = [ "../bin/" ^ name; "_build/default/bin/" ^ name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> Filename.concat (Sys.getcwd ()) p
  | None -> Filename.concat (Sys.getcwd ()) (List.hd candidates)

let exe = binary "gbisect_cli.exe"
let lint_exe = binary "gbisect_lint.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

(* Run [exe] with [args]; return (exit code, stdout, stderr). *)
let run_exe exe args =
  let out = Filename.temp_file "gbisect_out" ".txt" in
  let err = Filename.temp_file "gbisect_err" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out) (Filename.quote err)
      in
      let code = Sys.command cmd in
      (code, read_file out, read_file err))

let run_cli = run_exe exe
let run_lint = run_exe lint_exe

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool
let contains = Helpers.contains

let gbisect_lines s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.length l >= 8 && String.sub l 0 8 = "gbisect:")

(* A tiny valid edge-list graph file (header "n m", then "u v" lines). *)
let with_graph_file f =
  let path = Filename.temp_file "gbisect_graph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "6 7\n0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n";
      f path)

let fuzz_tests =
  [
    case "clean run exits 0 with silent stderr" (fun () ->
        let code, out, err = run_cli [ "fuzz"; "--runs"; "25"; "--seed"; "1" ] in
        check_int "exit" 0 code;
        check_bool "report on stdout" true (contains out "0 finding(s)");
        Alcotest.(check string) "stderr" "" err);
    case "--broken-oracle exits 1 with one gbisect: line" (fun () ->
        let code, out, err =
          run_cli [ "fuzz"; "--runs"; "15"; "--seed"; "5"; "--broken-oracle" ]
        in
        check_int "exit" 1 code;
        check_bool "counterexample printed" true (contains out "--replay");
        check_int "one diagnostic line" 1 (List.length (gbisect_lines err));
        check_bool "diagnostic names fuzz" true (contains err "gbisect: fuzz:"));
    case "--runs 0 is a usage error (exit 2)" (fun () ->
        let code, _, err = run_cli [ "fuzz"; "--runs"; "0" ] in
        check_int "exit" 2 code;
        check_bool "diagnosed" true (contains err "--runs"));
    case "unknown flag is a usage error (exit 2)" (fun () ->
        let code, _, _ = run_cli [ "fuzz"; "--no-such-flag" ] in
        check_int "exit" 2 code);
    case "--replay --json output is byte-identical across runs" (fun () ->
        let args = [ "fuzz"; "--replay"; "12345"; "--json" ] in
        let c1, out1, _ = run_cli args in
        let c2, out2, _ = run_cli args in
        check_int "exit a" 0 c1;
        check_int "exit b" 0 c2;
        Alcotest.(check string) "stdout identical" out1 out2);
    case "--jobs does not change the JSON report" (fun () ->
        let base = [ "fuzz"; "--runs"; "12"; "--seed"; "3"; "--json" ] in
        let c1, out1, _ = run_cli (base @ [ "--jobs"; "1" ]) in
        let c2, out2, _ = run_cli (base @ [ "--jobs"; "4" ]) in
        check_int "exit a" 0 c1;
        check_int "exit b" 0 c2;
        Alcotest.(check string) "stdout identical" out1 out2);
    case "--replay of an unrealisable gbreg draw finds nothing" (fun () ->
        let code, out, err = run_cli [ "fuzz"; "--replay"; "1062" ] in
        check_int "exit" 0 code;
        check_bool "report on stdout" true (contains out "0 finding(s)");
        Alcotest.(check string) "stderr" "" err);
  ]

let solve_tests =
  [
    case "solve on a valid file exits 0 and reports the cut" (fun () ->
        with_graph_file (fun path ->
            let code, out, err =
              run_cli [ "solve"; path; "-a"; "kl"; "--seed"; "7" ]
            in
            check_int "exit" 0 code;
            check_bool "cut reported" true (contains out "cut ");
            Alcotest.(check string) "stderr" "" err));
    case "every algorithm solves a graph without vertices: cut 0" (fun () ->
        let path = Filename.temp_file "gbisect_empty" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            write_file path "0 0\n";
            List.iter
              (fun id ->
                let code, out, err = run_cli [ "solve"; path; "-a"; id ] in
                check_int (id ^ " exit") 0 code;
                check_bool (id ^ " cut 0") true (contains out ": cut 0 (0+0 vertices)");
                Alcotest.(check string) (id ^ " stderr") "" err)
              Gbisect.Algo.ids));
    case "solve on a missing file is a usage error (exit 2)" (fun () ->
        let code, _, _ = run_cli [ "solve"; "/nonexistent/graph.txt" ] in
        check_int "exit" 2 code);
    case "solve on a malformed file exits 1 with one gbisect: line" (fun () ->
        let path = Filename.temp_file "gbisect_bad" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            write_file path "this is not a graph\n";
            let code, _, err = run_cli [ "solve"; path ] in
            check_int "exit" 1 code;
            check_int "one diagnostic line" 1 (List.length (gbisect_lines err))));
    case "solve with an unknown algorithm is a usage error (exit 2)" (fun () ->
        with_graph_file (fun path ->
            let code, _, _ = run_cli [ "solve"; path; "-a"; "bogus" ] in
            check_int "exit" 2 code));
    case "kway with an unknown algorithm is a usage error (exit 2)" (fun () ->
        with_graph_file (fun path ->
            let code, _, err = run_cli [ "kway"; path; "-a"; "nope" ] in
            check_int "exit" 2 code;
            check_bool "diagnosed" true (contains err "nope")));
    case "kway accepts every registered algorithm" (fun () ->
        with_graph_file (fun path ->
            List.iter
              (fun id ->
                let code, out, _ = run_cli [ "kway"; path; "-k"; "2"; "-a"; id ] in
                check_int id 0 code;
                check_bool (id ^ " reports the cut") true (contains out "total cut"))
              Gbisect.Algo.ids));
    case "bad --starts, -k and V-cycle values exit 2 before the graph is read" (fun () ->
        (* The graph file is malformed, so reading it first would exit 1. *)
        let path = Filename.temp_file "gbisect_bad" ".txt" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            write_file path "this is not a graph\n";
            List.iter
              (fun (args, flag) ->
                let what = String.concat " " args in
                let code, _, err = run_cli args in
                check_int (what ^ ": exit") 2 code;
                check_int (what ^ ": one diagnostic") 1 (List.length (gbisect_lines err));
                check_bool (what ^ ": names the flag") true (contains err (flag ^ " expects")))
              [
                ([ "solve"; path; "--starts"; "0" ], "--starts");
                ([ "race"; path; "--starts"; "0" ], "--starts");
                ([ "bombard"; "--starts"; "0" ], "--starts");
                ([ "kway"; path; "-k"; "3" ], "-k");
                ([ "kway"; path; "-k"; "0" ], "-k");
                ([ "solve"; path; "-a"; "mlkl"; "--ml-max-levels"; "0" ], "--ml-max-levels");
                ([ "solve"; path; "-a"; "kl"; "--ml-min-vertices"; "1" ], "--ml-min-vertices");
                ([ "scale"; "-n"; "2000"; "--ml-min-vertices"; "1" ], "--ml-min-vertices");
                ([ "scale"; "-n"; "2000"; "--ml-max-levels"; "0" ], "--ml-max-levels");
              ]));
    case "kway -k above the vertex count is a runtime failure (exit 1)" (fun () ->
        with_graph_file (fun path ->
            let code, _, err = run_cli [ "kway"; path; "-k"; "8" ] in
            check_int "exit" 1 code;
            check_int "one diagnostic line" 1 (List.length (gbisect_lines err))));
  ]

let perf_tests =
  let with_temp_json f =
    let path = Filename.temp_file "gbisect_perf" ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)
  in
  [
    case "run writes a schema-versioned artifact and exits 0" (fun () ->
        with_temp_json (fun base ->
            let code, out, err = run_cli [ "perf"; "--runs"; "1"; "--out"; base ] in
            check_int "exit" 0 code;
            check_bool "table rendered" true (contains out "core suite:");
            Alcotest.(check string) "stderr" "" err;
            let artifact = read_file base in
            check_bool "schema_version" true (contains artifact "\"schema_version\":1");
            check_bool "host fingerprint" true (contains artifact "\"ocaml_version\"")));
    case "--check against the run's own artifact exits 0" (fun () ->
        with_temp_json (fun base ->
            let c1, _, _ = run_cli [ "perf"; "--runs"; "1"; "--out"; base ] in
            check_int "baseline run exit" 0 c1;
            let code, out, err =
              run_cli [ "perf"; "--runs"; "1"; "--check"; "--baseline"; base ]
            in
            check_int "exit" 0 code;
            check_bool "no failures" true (contains out "0 failure(s)");
            Alcotest.(check string) "stderr" "" err));
    case "alloc regression against a tampered baseline exits 1" (fun () ->
        (* A baseline claiming kl.pass allocates 1 word/op: the real
           suite allocates thousands, so the deterministic alloc gate
           must hard-fail. Times are absurdly low too — those may only
           warn. Host matches this binary, so the gate stays hard. *)
        with_temp_json (fun base ->
            write_file base
              (Printf.sprintf
                 "{\"schema_version\": 1, \"suite\": \"core\", \"runs\": 1, \
                  \"host\": {\"ocaml_version\": %S, \"word_size\": %d, \
                  \"os_type\": %S, \"hostname\": \"ci\"}, \"benches\": \
                  {\"kl.pass\": {\"iters\": 1, \"ns_per_op\": 1, \
                  \"ns_median\": 1, \"ns_mad\": 0, \"alloc_words_per_op\": 1, \
                  \"promoted_words_per_op\": 0, \"minor_collections\": 0, \
                  \"major_collections\": 0}}}"
                 Sys.ocaml_version Sys.word_size Sys.os_type);
            let code, out, err =
              run_cli [ "perf"; "--runs"; "1"; "--check"; "--baseline"; base ]
            in
            check_int "exit" 1 code;
            check_bool "FAIL line names the bench" true (contains out "FAIL  kl.pass");
            check_int "one diagnostic line" 1 (List.length (gbisect_lines err));
            check_bool "diagnostic names perf" true (contains err "gbisect: perf:")));
    case "baseline schema mismatch exits 1" (fun () ->
        with_temp_json (fun base ->
            write_file base "{\"schema_version\": 999, \"benches\": {}}";
            let code, out, _ =
              run_cli [ "perf"; "--runs"; "1"; "--check"; "--baseline"; base ]
            in
            check_int "exit" 1 code;
            check_bool "schema diagnosed" true (contains out "schema_version")));
    case "unknown suite and --runs 0 are usage errors (exit 2)" (fun () ->
        let c1, _, err = run_cli [ "perf"; "--suite"; "nope" ] in
        check_int "suite exit" 2 c1;
        check_bool "suite diagnosed" true (contains err "suite");
        let c2, _, _ = run_cli [ "perf"; "--runs"; "0" ] in
        check_int "runs exit" 2 c2);
  ]

let lint_tests =
  [
    case "clean file exits 0 and summarises on stderr" (fun () ->
        let path = Filename.temp_file "gbisect_clean" ".ml" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            write_file path "let add a b = a + b\n";
            let code, _, err = run_lint [ path ] in
            check_int "exit" 0 code;
            check_int "one diagnostic line" 1 (List.length (gbisect_lines err));
            check_bool "summary" true (contains err "gbisect: lint:")));
    case "file with ambient randomness exits 1" (fun () ->
        let dir = Filename.temp_file "gbisect_lintdir" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let path = Filename.concat dir "lib_violation.ml" in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove path;
            Sys.rmdir dir)
          (fun () ->
            write_file path "let roll () = Random.int 6\n";
            let code, out, err = run_lint [ path ] in
            check_int "exit" 1 code;
            check_bool "rule named" true (contains out "no-ambient-random");
            check_int "one diagnostic line" 1 (List.length (gbisect_lines err))));
    case "missing path is a usage error (exit 2)" (fun () ->
        let code, _, _ = run_lint [ "/nonexistent/dir" ] in
        check_int "exit" 2 code);
    case "--json is the golden schema_version=1 shape, byte for byte" (fun () ->
        let dir = Filename.temp_file "gbisect_golden" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let path = Filename.concat dir "lib_violation.ml" in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove path;
            Sys.rmdir dir)
          (fun () ->
            write_file path "let roll () = Random.int 6\n";
            let code, out, _ = run_lint [ "--json"; path ] in
            check_int "exit" 1 code;
            let expected =
              Printf.sprintf
                "{\"schema_version\":1,\"files_scanned\":1,\"findings\":[{\"file\":%S,\"line\":1,\"rule\":\"no-ambient-random\",\"severity\":\"error\",\"message\":\"ambient Random.* bypasses the seeded Gb_prng.Rng streams, so results stop being reproducible from the run's seed; draw from an Rng.t handed down the call chain\",\"why\":[]}]}\n"
                path
            in
            Alcotest.(check string) "golden report" expected out));
  ]

(* The fault-injection shape: mutable module state reached from a
   Pool.map thunk through an intermediate module — [lint --program]
   must follow the chain across all three files. *)
let with_program_fixture f =
  let dir = Filename.temp_file "gbisect_prog" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let files =
    [
      ("dune", "(library\n (name fix))\n");
      ("fix_state.ml", "let cell = ref 0\nlet touch () = incr cell\n");
      ("fix_mid.ml", "let note () = Fix_state.touch ()\n");
      ("fix_par.ml", "let run xs = Gb_par.Pool.map (fun _ -> Fix_mid.note ()) xs\n");
    ]
  in
  List.iter (fun (n, c) -> write_file (Filename.concat dir n) c) files;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (n, _) -> Sys.remove (Filename.concat dir n)) files;
      Sys.rmdir dir)
    (fun () -> f dir)

let lint_program_tests =
  [
    case "--program follows a race chain across modules (exit 1)" (fun () ->
        with_program_fixture (fun dir ->
            let code, out, err = run_lint [ "--program"; dir ] in
            check_int "exit" 1 code;
            check_bool "rule named" true (contains out "par-unsafe-state");
            check_bool "witness chain rendered" true (contains out " -> ");
            check_bool "graph summary on stderr" true (contains err "parallel-reachable")));
    case "--why prints the witness chain for a symbol" (fun () ->
        with_program_fixture (fun dir ->
            let code, out, _ =
              run_lint [ "--program"; "--why"; "Fix_state.touch"; dir ]
            in
            check_int "exit (chain printed, no report)" 0 code;
            check_bool "explains reachability" true
              (contains out "inside a parallel region");
            check_bool "chain arrow" true (contains out "->"));
    );
    case "--why on an unknown symbol is a usage error" (fun () ->
        with_program_fixture (fun dir ->
            let code, _, _ =
              run_lint [ "--program"; "--why"; "No_such.symbol"; dir ]
            in
            check_int "exit" 2 code));
    case "--graph writes a DOT file" (fun () ->
        with_program_fixture (fun dir ->
            let dot = Filename.temp_file "gbisect_graph" ".dot" in
            Fun.protect
              ~finally:(fun () -> Sys.remove dot)
              (fun () ->
                let _, _, _ = run_lint [ "--graph"; dot; dir ] in
                let s = read_file dot in
                check_bool "digraph" true (contains s "digraph");
                check_bool "edges" true (contains s " -> ");
                check_bool "fan-out colored" true (contains s "orange"))));
  ]

let with_temp_dir f =
  let dir = Filename.temp_dir "gbisect_table" "" in
  Fun.protect ~finally:(fun () -> Helpers.rm_rf dir) (fun () -> f dir)

(* What [table] prints for one experiment: header, table, blank line. *)
let table_block id body =
  match Gbisect.Registry.find id with
  | Some e -> Printf.sprintf "=== %s — %s ===\n%s\n" id e.Gbisect.Registry.paper_ref body
  | None -> Alcotest.failf "no experiment %s" id

let table_tests =
  let smoke = [ "table"; "table1"; "figures"; "--profile"; "smoke" ] in
  [
    case "several ids: same stdout at any --jobs, equal to the single-id runs" (fun () ->
        let c1, out1, _ = run_cli (smoke @ [ "--jobs"; "1" ]) in
        let c2, out2, _ = run_cli (smoke @ [ "--jobs"; "2" ]) in
        check_int "exit --jobs 1" 0 c1;
        check_int "exit --jobs 2" 0 c2;
        Alcotest.(check string) "--jobs 1 vs 2" out1 out2;
        let single id =
          let code, out, _ = run_cli [ "table"; id; "--profile"; "smoke" ] in
          check_int ("exit " ^ id) 0 code;
          out
        in
        Alcotest.(check string) "single-id runs in a row" (single "table1" ^ single "figures")
          out1);
    case "--out writes the tables, telemetry.jsonl and metrics.json" (fun () ->
        with_temp_dir (fun dir ->
            let code, out, _ = run_cli (smoke @ [ "--jobs"; "2"; "--out"; dir ]) in
            check_int "exit" 0 code;
            let body id = read_file (Filename.concat dir (id ^ ".txt")) in
            Alcotest.(check string) "bodies are the stdout tables"
              (table_block "table1" (body "table1") ^ table_block "figures" (body "figures"))
              out;
            let records =
              String.split_on_char '\n' (read_file (Filename.concat dir "telemetry.jsonl"))
              |> List.filter (fun l -> l <> "")
            in
            check_bool "telemetry records" true (records <> []);
            List.iter
              (fun line ->
                let r = Gbisect.Obs.Json.of_string line in
                List.iter
                  (fun key -> check_bool key true (Gbisect.Obs.Json.member key r <> None))
                  [ "algorithm"; "graph"; "profile"; "start"; "cut"; "seconds"; "balanced";
                    "trajectory" ])
              records;
            ignore (Gbisect.Obs.Json.of_string (read_file (Filename.concat dir "metrics.json")))));
    case "--out writes the same telemetry.jsonl at any --jobs, seconds aside" (fun () ->
        (* Each record re-rendered without its "seconds" member. *)
        let records jobs =
          with_temp_dir (fun dir ->
              let code, _, _ = run_cli (smoke @ [ "--jobs"; jobs; "--out"; dir ]) in
              check_int ("exit --jobs " ^ jobs) 0 code;
              String.split_on_char '\n' (read_file (Filename.concat dir "telemetry.jsonl"))
              |> List.filter (fun l -> l <> "")
              |> List.map (fun line ->
                     match Gbisect.Obs.Json.of_string line with
                     | Gbisect.Obs.Json.Obj fields ->
                         Gbisect.Obs.Json.to_string
                           (Gbisect.Obs.Json.Obj
                              (List.filter (fun (k, _) -> k <> "seconds") fields))
                     | _ -> Alcotest.failf "telemetry line is not an object: %s" line))
        in
        let seq = records "1" in
        check_bool "records" true (seq <> []);
        Alcotest.(check (list string)) "--jobs 1 vs 2" seq (records "2"));
    case "no id runs every table in --list order" (fun () ->
        let code, out, _ = run_cli [ "table"; "--profile"; "smoke"; "--jobs"; "2" ] in
        check_int "exit" 0 code;
        let headers =
          String.split_on_char '\n' out
          |> List.filter (fun l -> String.length l > 4 && String.sub l 0 4 = "=== ")
        in
        Alcotest.(check (list string)) "one header per experiment"
          (List.map
             (fun (e : Gbisect.Registry.experiment) ->
               Printf.sprintf "=== %s — %s ===" e.id e.paper_ref)
             Gbisect.Registry.all)
          headers);
    case "--parallel-bench with --store is a usage error (exit 2)" (fun () ->
        with_temp_dir (fun dir ->
            let store = Filename.concat dir "store" in
            let code, _, err =
              run_cli
                [ "table"; "figures"; "--profile"; "smoke"; "--parallel-bench";
                  Filename.concat dir "bench.json"; "--store"; store ]
            in
            check_int "exit" 2 code;
            check_bool "diagnosed" true (contains err "--parallel-bench");
            check_bool "store not created" false (Sys.file_exists store)));
  ]

let serve_tests =
  [
    case "serve: unbindable socket path exits 1 with one gbisect: line" (fun () ->
        let code, _, err = run_cli [ "serve"; "unix:/nonexistent/dir/gb.sock" ] in
        check_int "exit" 1 code;
        check_int "one diagnostic line" 1 (List.length (gbisect_lines err));
        check_bool "names the address" true (contains err "unix:/nonexistent/dir/gb.sock"));
    case "serve: malformed address and bad flags are usage errors (exit 2)" (fun () ->
        let c1, _, err = run_cli [ "serve"; "tcp:localhost" ] in
        check_int "tcp without port" 2 c1;
        check_bool "diagnosed" true (contains err "gbisect:");
        let c2, _, _ = run_cli [ "serve"; "--queue"; "0" ] in
        check_int "--queue 0" 2 c2;
        let c3, _, _ = run_cli [ "serve"; "--no-cache"; "--store"; "/tmp/x" ] in
        check_int "--no-cache with --store" 2 c3);
    case "bombard: unreachable daemon exits 1 with one gbisect: line" (fun () ->
        let code, _, err =
          run_cli [ "bombard"; "unix:/nonexistent/gb.sock"; "-n"; "1" ]
        in
        check_int "exit" 1 code;
        check_int "one diagnostic line" 1 (List.length (gbisect_lines err)));
    case "bombard: a plan over raising corpus seeds still reaches the connect" (fun () ->
        (* 32000 requests draw about 9600 corpus seeds, some of whose
           graphs have fewer than 2 vertices; the plan skips them and
           the run fails only at the unreachable address. *)
        let code, _, err =
          run_cli
            [ "bombard"; "unix:/missing"; "-n"; "32000"; "-c"; "2"; "--repeat"; "0.7"; "--seed"; "3" ]
        in
        check_int "exit" 1 code;
        check_bool "cannot connect" true (contains err "cannot connect to unix:/missing"));
    case "bombard: nonsense parameters are usage errors (exit 2)" (fun () ->
        let c1, _, _ = run_cli [ "bombard"; "--requests"; "0" ] in
        check_int "--requests 0" 2 c1;
        let c2, _, err = run_cli [ "bombard"; "--repeat"; "1.5" ] in
        check_int "--repeat 1.5" 2 c2;
        check_bool "diagnosed" true (contains err "--repeat");
        let c3, _, _ = run_cli [ "bombard"; "--timeout"; "0" ] in
        check_int "--timeout 0" 2 c3);
  ]

let scale_tests =
  [
    case "scale run writes the artifact and exits 0" (fun () ->
        let out = Filename.temp_file "gbisect_scale" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove out)
          (fun () ->
            let code, stdout, stderr =
              run_cli
                [
                  "scale"; "-n"; "2000"; "--degree"; "4"; "--seed"; "7"; "-a"; "mlfm";
                  "--max-rss"; "4096"; "--out"; out;
                ]
            in
            check_int "exit 0" 0 code;
            check_int "silent stderr" 0 (List.length (gbisect_lines stderr));
            check_bool "summary line" true (contains stdout "scale: mlfm, 2000 vertices");
            let artifact = read_file out in
            check_bool "schema versioned" true (contains artifact "\"schema_version\":");
            check_bool "host fingerprint" true (contains artifact "\"hostname\":");
            check_bool "rss recorded" true (contains artifact "\"peak_rss_bytes\":")));
    case "scale over an impossible --max-rss exits 1" (fun () ->
        let code, _, stderr =
          run_cli [ "scale"; "-n"; "2000"; "--seed"; "7"; "--max-rss"; "1" ]
        in
        check_int "exit 1" 1 code;
        check_int "one diagnostic" 1 (List.length (gbisect_lines stderr));
        check_bool "names the budget" true (contains stderr "--max-rss"));
    case "scale usage errors exit 2" (fun () ->
        List.iter
          (fun args ->
            let code, _, _ = run_cli ("scale" :: args) in
            check_int (String.concat " " args) 2 code)
          [
            [ "-n"; "1" ];
            [ "--degree"; "0" ];
            [ "-a"; "nope" ];
            [ "--refine-passes"; "0" ];
            [ "--grid"; "3" ];
          ]);
  ]

let () =
  if not (Sys.file_exists exe) then (
    Printf.eprintf "test_cli: binary not found at %s\n" exe;
    exit 1);
  Alcotest.run "cli"
    [
      ("fuzz", fuzz_tests);
      ("solve", solve_tests);
      ("perf", perf_tests);
      ("lint", lint_tests);
      ("lint --program", lint_program_tests);
      ("table", table_tests);
      ("serve", serve_tests);
      ("scale", scale_tests);
    ]
