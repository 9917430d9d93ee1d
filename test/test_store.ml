(* Tests for Gb_store: key addressing, crash-safety of the on-disk
   format (torn records dropped, tmp leftovers cleaned), the --no-cache
   switch, and the contract that justifies the whole module — an
   interrupted experiment run resumed against the same store reproduces
   the uninterrupted table and telemetry stream byte for byte. *)

module Store = Gbisect.Store
module Obs = Gbisect.Obs
module Json = Obs.Json
module Telemetry = Obs.Telemetry
module Registry = Gbisect.Registry
module Profile = Gbisect.Profile
module Pool = Gbisect.Pool

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- scratch directories --------------------------------------------------- *)

let seq = ref 0

let rm_rf = Helpers.rm_rf

let with_dir f =
  incr seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gbisect-store-%d-%d" (Unix.getpid ()) !seq)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let objects dir =
  Sys.readdir (Filename.concat dir "objects")
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare

(* --- keys ------------------------------------------------------------------ *)

let key_tests =
  [
    case "equal fields give equal keys, order matters" (fun () ->
        let k1 = Store.key [ ("a", "1"); ("b", "2") ] in
        let k2 = Store.key [ ("a", "1"); ("b", "2") ] in
        let k3 = Store.key [ ("b", "2"); ("a", "1") ] in
        Alcotest.(check string) "hash" (Store.key_hash k1) (Store.key_hash k2);
        check_bool "order-sensitive" true (Store.key_hash k1 <> Store.key_hash k3));
    case "hash is a 32-char hex filename stem" (fun () ->
        let h = Store.key_hash (Store.key [ ("x", "y") ]) in
        check_int "length" 32 (String.length h);
        String.iter
          (fun c ->
            check_bool "hex" true
              ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
          h);
    case "describe renders the fields" (fun () ->
        let d = Store.describe (Store.key [ ("seed", "42") ]) in
        check_bool "has field" true (Helpers.contains d "\"seed\"");
        check_bool "has value" true (Helpers.contains d "42"));
  ]

(* --- the store ------------------------------------------------------------- *)

let store_tests =
  [
    case "add / find round trip, stats count" (fun () ->
        with_dir (fun dir ->
            let s = Store.open_store dir in
            let k = Store.key [ ("cell", "a") ] in
            check_bool "cold miss" true (Store.find s k = None);
            Store.add s k (Json.Obj [ ("cut", Json.Int 5) ]);
            check_bool "hit" true
              (Store.find s k = Some (Json.Obj [ ("cut", Json.Int 5) ]));
            check_int "length" 1 (Store.length s);
            let st = Store.stats s in
            check_int "hits" 1 st.Store.hits;
            check_int "misses" 1 st.Store.misses;
            check_int "writes" 1 st.Store.writes;
            Store.close s;
            check_bool "exists after close" true (Store.exists dir)));
    case "records survive reopen" (fun () ->
        with_dir (fun dir ->
            let k = Store.key [ ("cell", "b") ] in
            let s = Store.open_store dir in
            Store.add s k (Json.Int 7);
            Store.close s;
            let s = Store.open_store dir in
            check_bool "found" true (Store.find s k = Some (Json.Int 7));
            check_int "one object file" 1 (List.length (objects dir))));
    case "a truncated record is dropped and the run continues" (fun () ->
        with_dir (fun dir ->
            let k = Store.key [ ("cell", "c") ] in
            let s = Store.open_store dir in
            Store.add s k (Json.Obj [ ("cut", Json.Int 9); ("t", Json.Float 0.5) ]);
            Store.close s;
            (* simulate a torn write: cut the record file mid-line *)
            let path =
              Filename.concat (Filename.concat dir "objects") (Store.key_hash k ^ ".json")
            in
            let content = read_file path in
            write_file path (String.sub content 0 (String.length content / 2));
            let s = Store.open_store dir in
            check_int "dropped counted" 1 (Store.stats s).Store.dropped;
            check_bool "record gone" true (Store.find s k = None);
            (* the recompute overwrites the torn file *)
            Store.add s k (Json.Int 1);
            check_bool "recovered" true (Store.find s k = Some (Json.Int 1));
            Store.close s;
            let s = Store.open_store dir in
            check_int "clean reopen" 0 (Store.stats s).Store.dropped;
            check_bool "durable" true (Store.find s k = Some (Json.Int 1))));
    case "leftover tmp files are removed at open" (fun () ->
        with_dir (fun dir ->
            let s = Store.open_store dir in
            Store.add s (Store.key [ ("cell", "d") ]) Json.Null;
            Store.close s;
            (* a writer killed between open_out and rename leaves this *)
            let stray =
              Filename.concat (Filename.concat dir "objects") "deadbeef.json.tmp-3-1"
            in
            write_file stray "{ half a rec";
            let s = Store.open_store dir in
            check_bool "tmp removed" true (not (Sys.file_exists stray));
            check_int "real record kept" 1 (Store.length s)));
    case "non-finite values are refused" (fun () ->
        with_dir (fun dir ->
            let s = Store.open_store dir in
            List.iter
              (fun x ->
                match
                  Store.add s (Store.key [ ("cell", "e") ]) (Json.Float x)
                with
                | exception Invalid_argument _ -> ()
                | () -> Alcotest.failf "stored %f" x)
              [ Float.nan; Float.infinity; Float.neg_infinity ];
            check_int "nothing written" 0 (Store.length s)));
    case "readable:false misses but still persists" (fun () ->
        with_dir (fun dir ->
            let k = Store.key [ ("cell", "f") ] in
            let s = Store.open_store dir in
            Store.add s k (Json.Int 3);
            Store.close s;
            let s = Store.open_store ~readable:false dir in
            check_bool "no-cache miss" true (Store.find s k = None);
            Store.add s k (Json.Int 4);
            check_bool "still misses" true (Store.find s k = None);
            Store.close s;
            let s = Store.open_store dir in
            check_bool "fresh value won" true (Store.find s k = Some (Json.Int 4))));
    case "a newer on-disk format refuses to open" (fun () ->
        with_dir (fun dir ->
            Sys.mkdir dir 0o755;
            write_file (Filename.concat dir "index.json")
              "{\"version\": 99, \"records\": 0}\n";
            match Store.open_store dir with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail "opened a future-format store"));
    case "exists only after a store was created" (fun () ->
        with_dir (fun dir ->
            check_bool "fresh dir" false (Store.exists dir);
            Store.close (Store.open_store dir);
            check_bool "after open" true (Store.exists dir)));
    case "ambient store set / current" (fun () ->
        with_dir (fun dir ->
            let s = Store.open_store dir in
            check_bool "none by default" true (Store.current () = None);
            Store.set_current (Some s);
            Fun.protect
              ~finally:(fun () -> Store.set_current None)
              (fun () -> check_bool "visible" true (Store.current () = Some s));
            check_bool "cleared" true (Store.current () = None)));
  ]

(* --- interrupt / resume byte-identity -------------------------------------- *)

let with_jobs = Helpers.with_jobs
let with_constant_clock = Helpers.with_constant_clock

(* Run one registry experiment, returning the rendered table and the
   telemetry stream in emission order (the writer is what telemetry.jsonl
   hangs off, so list equality here is stream byte-identity). *)
let run_table ?store ?(jobs = 1) id =
  let records = ref [] in
  let m = Mutex.create () in
  let table =
    with_jobs jobs (fun () ->
        with_constant_clock (fun () ->
            Store.set_current store;
            Telemetry.set_writer
              (Some (fun r -> Mutex.protect m (fun () -> records := r :: !records)));
            Fun.protect
              ~finally:(fun () ->
                Telemetry.set_writer None;
                Store.set_current None)
              (fun () ->
                match Registry.find id with
                | None -> Alcotest.failf "unknown experiment %S" id
                | Some e -> e.Registry.run Profile.smoke)))
  in
  (table, List.rev !records)

(* Compare telemetry streams record by record; on the first divergence
   show both sides (far more useful than a bare false). *)
let check_same_stream label expected actual =
  let render r = Json.to_string (Telemetry.to_json r) in
  let rec go i = function
    | [], [] -> ()
    | e :: es, a :: aas ->
        if e <> a then
          Alcotest.failf "%s: record %d differs\n  expected %s\n  actual   %s" label i
            (render e) (render a)
        else go (i + 1) (es, aas)
    | es, aas ->
        Alcotest.failf "%s: length %d vs %d" label (i + List.length es)
          (i + List.length aas)
  in
  go 0 (expected, actual)

let resume_case id =
  case (Printf.sprintf "interrupted %s resumes byte-identically" id) (fun () ->
      with_dir (fun dir_a ->
          with_dir (fun dir_b ->
              (* Cold run, every cell computed and persisted. *)
              let store_a = Store.open_store dir_a in
              let table_cold, telemetry_cold = run_table ~store:store_a id in
              Store.close store_a;
              check_bool "cells persisted" true ((Store.stats store_a).Store.writes > 0);
              let cells = objects dir_a in
              check_bool "several cells" true (List.length cells >= 2);
              (* "Interrupt": a store holding only half the cells, as
                 left behind by a run killed partway. Atomic renames
                 guarantee the survivors are whole records. *)
              Sys.mkdir dir_b 0o755;
              Sys.mkdir (Filename.concat dir_b "objects") 0o755;
              List.iteri
                (fun i f ->
                  if i mod 2 = 0 then
                    write_file
                      (Filename.concat (Filename.concat dir_b "objects") f)
                      (read_file (Filename.concat (Filename.concat dir_a "objects") f)))
                cells;
              let store_b = Store.open_store dir_b in
              let table_resumed, telemetry_resumed = run_table ~store:store_b id in
              Store.close store_b;
              let st = Store.stats store_b in
              check_bool "replayed some cells" true (st.Store.hits > 0);
              check_bool "computed the rest" true (st.Store.misses > 0);
              Alcotest.(check string) "resumed table" table_cold table_resumed;
              check_same_stream "resumed telemetry stream" telemetry_cold
                telemetry_resumed;
              check_bool "store completed" true
                (List.length (objects dir_b) = List.length cells);
              (* Fully warm: everything replays, nothing recomputes. *)
              let store_b = Store.open_store dir_b in
              let table_warm, telemetry_warm = run_table ~store:store_b id in
              let st = Store.stats store_b in
              check_int "no recomputation" 0 st.Store.misses;
              check_bool "all hits" true (st.Store.hits > 0);
              Alcotest.(check string) "warm table" table_cold table_warm;
              check_same_stream "warm telemetry stream" telemetry_cold telemetry_warm;
              (* And the cache is jobs-agnostic: a parallel resumed run
                 renders the same table (stream order may differ). *)
              let store_b4 = Store.open_store dir_b in
              let table_par, telemetry_par = run_table ~store:store_b4 ~jobs:4 id in
              Alcotest.(check string) "jobs 4 table" table_cold table_par;
              let sorted_stream rs =
                List.sort String.compare
                  (List.map (fun r -> Json.to_string (Telemetry.to_json r)) rs)
              in
              check_bool "jobs 4 telemetry (sorted)" true
                (sorted_stream telemetry_cold = sorted_stream telemetry_par))))

let with_ticking_clock = Helpers.with_ticking_clock

(* Every registered table at the smoke profile through [store], as
   `gbisect table --store` runs them: the rendered tables, the
   telemetry stream in emission order, and the store's counts. *)
let run_all ~jobs store =
  let records = ref [] in
  let m = Mutex.create () in
  let tables =
    with_jobs jobs (fun () ->
        with_ticking_clock (fun () ->
            Store.set_current (Some store);
            Telemetry.set_writer
              (Some (fun r -> Mutex.protect m (fun () -> records := r :: !records)));
            Fun.protect
              ~finally:(fun () ->
                Telemetry.set_writer None;
                Store.set_current None)
              (fun () ->
                List.map
                  (fun (_, table, _) -> table)
                  (Registry.run_selected Profile.smoke Registry.all))))
  in
  Store.close store;
  (tables, List.rev !records, Store.stats store)

let counter name = Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters ()))

let warm_tests =
  [
    case "a warm rerun of every table recomputes nothing" (fun () ->
        with_dir (fun dir ->
            let tables_cold, telemetry_cold, _ = run_all ~jobs:1 (Store.open_store dir) in
            Obs.Metrics.set_enabled true;
            Obs.Metrics.reset ();
            let tables_warm, telemetry_warm, st =
              Fun.protect
                ~finally:(fun () -> Obs.Metrics.set_enabled false)
                (fun () -> run_all ~jobs:1 (Store.open_store dir))
            in
            check_int "misses" 0 st.Store.misses;
            check_int "writes" 0 st.Store.writes;
            List.iter
              (fun name -> check_int name 0 (counter name))
              [ "kl.passes"; "sa.plateaus"; "compaction.matchings" ];
            Alcotest.(check (list string)) "tables" tables_cold tables_warm;
            check_same_stream "telemetry stream" telemetry_cold telemetry_warm));
    case "a cold run reads and writes the same cells at jobs 1 and 2" (fun () ->
        with_dir (fun dir_1 ->
            with_dir (fun dir_2 ->
                let _, _, st1 = run_all ~jobs:1 (Store.open_store dir_1) in
                let _, _, st2 = run_all ~jobs:2 (Store.open_store dir_2) in
                check_bool "some cells are shared between tables" true (st1.Store.hits > 0);
                check_int "hits" st1.Store.hits st2.Store.hits;
                check_int "misses" st1.Store.misses st2.Store.misses;
                check_int "writes" st1.Store.writes st2.Store.writes)));
  ]

let resume_tests = [ resume_case "table1"; resume_case "geometric" ] @ warm_tests

let () =
  Alcotest.run "store"
    [
      ("keys", key_tests);
      ("store", store_tests);
      ("resume", resume_tests);
    ]
