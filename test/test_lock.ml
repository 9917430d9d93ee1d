(* Behaviour lock: pins observable outputs to committed values so a
   refactor that should change nothing can prove it changed nothing.

   lock.golden holds one line per locked value:
   - "fingerprint PROFILE STRING": the result-store fingerprint of each
     profile (store keys embed it, so a change orphans every stored cell);
   - "table ID MD5": the digest of every registered experiment table
     rendered at the smoke profile under a pinned clock;
   - "cut CASE ALGO CUT": the fixed-seed cut of every algorithm on one
     case of each fuzz family with at least 2 vertices, and on
     Gnp(2000, d=4), which coarsens deep enough to exercise the
     multilevel refinement budget;
   - "xsa CASE MD5": on the same cases and on Gnp(80, d=4), a digest of
     xsa's whole recorded outcome (see [xsa_runs]);
   - "span PARENT/NAME COUNT", "trace RUN MD5" and "telemetry RUN MD5":
     the shape of three traced runs (see [traced_runs]): how often each
     span or instant occurs under each parent ("-" at top level), a
     digest of each run's events, and a digest of the table run's
     telemetry records.

   To re-baseline after an intended behaviour change, run
   [GBISECT_LOCK_WRITE=$PWD/test/lock.golden dune exec test/test_lock.exe]
   from the repository root and list every changed line in CHANGES.md. *)

module Obs = Gbisect.Obs
module Profile = Gbisect.Profile
module Registry = Gbisect.Registry

let golden_path =
  (* dune runtest runs from the test build directory; dune exec from the
     project root. *)
  match List.find_opt Sys.file_exists [ "lock.golden"; "test/lock.golden" ] with
  | Some p -> p
  | None -> "lock.golden"

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if line = "" || line.[0] = '#' then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let fingerprints =
  List.map
    (fun (p : Profile.t) -> Printf.sprintf "fingerprint %s %s" p.name (Profile.fingerprint p))
    [ Profile.smoke; Profile.quick; Profile.paper ]

let tables () =
  Helpers.with_constant_clock (fun () ->
      List.map
        (fun (e : Registry.experiment) ->
          Printf.sprintf "table %s %s" e.id
            (Digest.to_hex (Digest.string (e.run Profile.smoke))))
        Registry.all)

let algorithms = List.map (fun (e : Gbisect.Algo.entry) -> (e.id, e.algorithm)) Gbisect.Algo.all

(* The first corpus case of each family with at least 2 vertices. *)
let family_cases () =
  let module G = Gbisect.Fuzz_generators in
  let rec first family seed =
    match G.generate ~seed with
    | { family = f; graph; _ } when f = family && Gbisect.Graph.n_vertices graph >= 2 ->
        (Printf.sprintf "%s#%d" family seed, graph)
    | _ | (exception _) -> first family (seed + 1)
  in
  List.filter_map
    (fun family ->
      if List.mem family [ "empty"; "singleton" ] then None else Some (first family 0))
    G.families

let gnp_case () =
  let rng = Gbisect.Rng.create ~seed:1 in
  ("gnp-2000-d4#1", Gbisect.Gnp.with_average_degree rng ~n:2000 ~avg_degree:4.)

let cuts () =
  List.concat_map
    (fun (label, g) ->
      List.map
        (fun (id, algorithm) ->
          let r = Gbisect.solve ~algorithm ~starts:1 (Gbisect.Rng.create ~seed:1) g in
          Printf.sprintf "cut %s %s %d" label id (Gbisect.Bisection.cut r.bisection))
        algorithms)
    (family_cases () @ [ gnp_case () ])

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Xsa.run ~record:true at its default config and seed 1, reduced to
   the returned sides, every counter, the chosen slot and every chain's
   trajectory: the swap phase and each chain's best-keeping show here
   even where the cut does not move. On Gnp(2000, d=4) no swap is
   accepted, and on the family cases (at most 15 vertices) a best kept
   wrong after a swap rarely reaches the answer; on Gnp(80, d=4) it
   does. *)
let xsa_runs () =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  List.map
    (fun (label, g) ->
      let b, (s : Gbisect.Xsa.stats) =
        Gbisect.Xsa.run ~record:true (Gbisect.Rng.create ~seed:1) g
      in
      Printf.sprintf "xsa %s %s" label
        (digest_lines
           (ints (Gbisect.Bisection.sides b)
           :: Printf.sprintf "%d %d %d %d %d %b" s.attempted s.accepted s.swaps_attempted
                s.swaps_accepted s.best_chain s.best_was_snapshot
           :: Array.to_list (Array.map ints s.trajectories))))
    (family_cases ()
    @ [
        gnp_case ();
        ( "gnp-80-d4#1",
          Gbisect.Gnp.with_average_degree (Gbisect.Rng.create ~seed:1) ~n:80 ~avg_degree:4. );
      ])

(* Three traced runs at --jobs 1 under a clock that advances on every
   read, so that every span has its own start and end and nesting can be
   read back from the timestamps:
   - "tables": table1 and figures at the smoke profile, with a telemetry
     writer installed;
   - "serve": two identical ckl solves through [Serve.handle] with a
     store (the second is a cache hit), then a ping;
   - "solve": one mlfm and one xsa solve of a small Gnp.
   The digests leave out what the clock and the allocator decide: an
   event's [ts], [dur] and [alloc_words], a record's [seconds]. *)

(* The trace events [f] emits, parsed, in emission order. *)
let events_of f =
  let buf = Buffer.create 4096 in
  Obs.Trace.set (Obs.Trace.of_writer (Buffer.add_string buf));
  Fun.protect ~finally:Obs.Trace.close f;
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map Obs.Json.of_string

let without keys = function
  | Obs.Json.Obj fields ->
      Obs.Json.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) fields)
  | j -> j

let event_digest events =
  let masked = function
    | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.filter_map
             (function
               | ("ts" | "dur"), _ -> None
               | "args", args -> Some ("args", without [ "alloc_words" ] args)
               | field -> Some field)
             fields)
    | j -> j
  in
  digest_lines (List.map (fun e -> Obs.Json.to_string (masked e)) events)

(* Each event's parent is the innermost complete event of its thread
   that encloses it. *)
let parented events =
  let field k e = Option.get (Obs.Json.member k e) in
  let num k e = Option.value ~default:0. (Option.bind (Obs.Json.member k e) Obs.Json.to_float) in
  let str k e = match field k e with Obs.Json.String s -> s | _ -> "?" in
  let tid e = Obs.Json.to_string (field "tid" e) in
  let sorted =
    List.stable_sort
      (fun a b ->
        match String.compare (tid a) (tid b) with
        | 0 -> (
            match Float.compare (num "ts" a) (num "ts" b) with
            | 0 -> Float.compare (num "dur" b) (num "dur" a)
            | c -> c)
        | c -> c)
      events
  in
  let open_spans = ref [] in
  List.map
    (fun e ->
      let ts = num "ts" e in
      open_spans :=
        List.filter (fun (t, _, stop) -> t = tid e && stop >= ts) !open_spans;
      let parent = match !open_spans with (_, name, _) :: _ -> name | [] -> "-" in
      if str "ph" e = "X" then open_spans := (tid e, str "name" e, ts +. num "dur" e) :: !open_spans;
      (parent, str "name" e))
    sorted

(* The table run's events and telemetry records, in emission order. *)
let table_run () =
  let records = ref [] in
  Obs.Telemetry.set_writer (Some (fun r -> records := r :: !records));
  let events =
    Fun.protect
      ~finally:(fun () -> Obs.Telemetry.set_writer None)
      (fun () ->
        events_of (fun () ->
            ignore
              (Registry.run_selected Profile.smoke
                 (List.filter_map Registry.find [ "table1"; "figures" ]))))
  in
  (events, List.rev !records)

let serve_run graph =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gbisect-lock-%d" (Unix.getpid ()))
  in
  let store = Gbisect.Store.open_store dir in
  Fun.protect
    ~finally:(fun () ->
      Gbisect.Store.close store;
      Helpers.rm_rf dir)
    (fun () ->
      let module P = Gbisect.Serve_protocol in
      let server =
        Gbisect.Serve.create { Gbisect.Serve.default_config with store = Some store }
      in
      let data = Gbisect.Graph_io.to_edge_list_string graph in
      let solve =
        P.Solve { id = None; format = P.Edge_list; data; algorithm = `Ckl; starts = 2; seed = 1 }
      in
      events_of (fun () ->
          List.iter
            (fun r -> ignore (Gbisect.Serve.handle server r))
            [ solve; solve; P.Ping None ]))

let solve_run graph =
  events_of (fun () ->
      List.iter
        (fun algorithm ->
          ignore (Gbisect.solve ~algorithm ~starts:1 (Gbisect.Rng.create ~seed:1) graph))
        [ `Mlfm; `Xsa ])

let traced_runs () =
  Helpers.with_jobs 1 @@ fun () ->
  Helpers.with_ticking_clock @@ fun () ->
  let tables, records = table_run () in
  let graph =
    Gbisect.Gnp.with_average_degree (Gbisect.Rng.create ~seed:5) ~n:300 ~avg_degree:4.
  in
  let runs = [ ("tables", tables); ("serve", serve_run graph); ("solve", solve_run graph) ] in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun key ->
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    (List.concat_map (fun (_, events) -> parented events) runs);
  let spans =
    Hashtbl.fold
      (fun (parent, name) n acc -> Printf.sprintf "span %s/%s %d" parent name n :: acc)
      counts []
  in
  List.sort String.compare spans
  @ List.map (fun (run, events) -> Printf.sprintf "trace %s %s" run (event_digest events)) runs
  @ [
      Printf.sprintf "telemetry tables %s"
        (digest_lines
           (List.map
              (fun r -> Obs.Json.to_string (without [ "seconds" ] (Obs.Telemetry.to_json r)))
              records));
    ]

let check_lines what expected actual =
  let key line =
    match String.rindex_opt line ' ' with Some i -> String.sub line 0 i | None -> line
  in
  let expected = List.filter (fun l -> String.starts_with ~prefix:what l) expected in
  let diffs =
    List.filter_map
      (fun a ->
        match List.find_opt (fun e -> key e = key a) expected with
        | Some e when e = a -> None
        | Some e -> Some (Printf.sprintf "  expected %s\n  got      %s" e a)
        | None -> Some (Printf.sprintf "  not in the golden file: %s" a))
      actual
  in
  let missing =
    List.filter (fun e -> not (List.exists (fun a -> key a = key e) actual)) expected
  in
  let diffs = diffs @ List.map (Printf.sprintf "  no longer produced: %s") missing in
  if diffs <> [] then
    Alcotest.failf "%d %s line(s) moved:\n%s" (List.length diffs) what
      (String.concat "\n" diffs)

let () =
  match Sys.getenv_opt "GBISECT_LOCK_WRITE" with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc
        "# Behaviour lock for test/test_lock.ml; regenerate only for an intended change.\n";
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (fingerprints @ tables () @ cuts () @ xsa_runs () @ traced_runs ());
      close_out oc
  | None ->
      let golden = read_lines golden_path in
      let case name what actual =
        Helpers.case name (fun () -> check_lines what golden (actual ()))
      in
      Alcotest.run "lock"
        [
          ( "lock",
            [
              case "profile fingerprints are unchanged" "fingerprint" (fun () ->
                  fingerprints);
              case "every smoke table renders byte-identically" "table" tables;
              case "fixed-seed cuts of every algorithm are unchanged" "cut" cuts;
              case "xsa keeps its sides, counters and trajectories" "xsa" xsa_runs;
              Helpers.case "traced runs keep their spans, events and records" (fun () ->
                  let lines = traced_runs () in
                  List.iter
                    (fun what ->
                      check_lines what golden
                        (List.filter (String.starts_with ~prefix:(what ^ " ")) lines))
                    [ "span"; "trace"; "telemetry" ]);
            ] );
        ]
