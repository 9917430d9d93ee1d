(* The serving layer: protocol codec round-trips and error paths,
   incremental framing, the service semantics at the [handle] level
   (byte-identity with Gbisect.solve, cache replay, backpressure and
   draining states), and a live daemon smoke test over a Unix socket
   (spawn the real binary, talk to it with Serve_client, load it with
   `gbisect bombard`, then SIGTERM it and require a clean exit). *)

module P = Gbisect.Serve_protocol
module Server = Gbisect.Serve
module Client = Gbisect.Serve_client
module Gio = Gbisect.Graph_io

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool
let contains = Helpers.contains

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

let sample_graph_data =
  Gbisect.Graph_io.to_edge_list_string (Gbisect.Classic.ladder 4)

let sample_solve : P.solve =
  {
    id = Some "req-1";
    format = P.Edge_list;
    data = sample_graph_data;
    algorithm = `Ckl;
    starts = 2;
    seed = 42;
  }

let roundtrip_request name (req : P.request) =
  case name (fun () ->
      match P.request_of_line (P.request_to_line req) with
      | Ok req' -> check_bool "round-trips" true (P.equal_request req req')
      | Error (_, msg) -> Alcotest.failf "did not parse back: %s" msg)

let roundtrip_response name (resp : P.response) =
  case name (fun () ->
      match P.response_of_line (P.response_to_line resp) with
      | Ok resp' -> check_bool "round-trips" true (P.equal_response resp resp')
      | Error msg -> Alcotest.failf "did not parse back: %s" msg)

let all_algorithms = List.map (fun (e : Gbisect.Algo.entry) -> e.algorithm) Gbisect.Algo.all
let all_codes : P.error_code list =
  [ P.Bad_request; P.Unsupported; P.Too_large; P.Overloaded; P.Shutting_down; P.Internal ]

let sample_solved : P.solved =
  {
    algorithm = `Fm;
    cut = 3;
    n0 = 4;
    n1 = 4;
    side = [| 0; 0; 1; 1; 0; 1; 0; 1 |];
    balanced = true;
    seconds = 0.125;
    cached = false;
  }

let sample_stats : P.stats =
  {
    uptime_seconds = 12.5;
    requests = 10;
    solved = 7;
    errors = 2;
    overloaded = 1;
    cache_hits = 3;
    cache_misses = 4;
    queue_depth = 1;
    queue_capacity = 64;
  }

let codec_tests =
  [
    roundtrip_request "solve round-trips" (P.Solve sample_solve);
    roundtrip_request "solve without id round-trips"
      (P.Solve { sample_solve with id = None; format = P.Metis; data = "2 1\n2\n1\n" });
    roundtrip_request "ping round-trips" (P.Ping (Some "p"));
    roundtrip_request "stats round-trips" (P.Stats None);
    roundtrip_request "shutdown round-trips" (P.Shutdown (Some "bye"));
    case "every algorithm survives the wire" (fun () ->
        List.iter
          (fun a ->
            let req = P.Solve { sample_solve with algorithm = a } in
            match P.request_of_line (P.request_to_line req) with
            | Ok req' -> check_bool (Gbisect.Algo.id a) true (P.equal_request req req')
            | Error (_, msg) -> Alcotest.failf "%s: %s" (Gbisect.Algo.id a) msg)
          all_algorithms);
    case "algorithm ids are total and invertible" (fun () ->
        List.iter
          (fun a ->
            match Gbisect.Algo.of_id (Gbisect.Algo.id a) with
            | Some a' -> check_bool (Gbisect.Algo.id a) true (a = a')
            | None -> Alcotest.failf "id %s did not invert" (Gbisect.Algo.id a))
          all_algorithms);
    roundtrip_response "solved round-trips"
      { rid = Some "req-1"; reply = P.Solved sample_solved };
    roundtrip_response "cached solved round-trips"
      { rid = None; reply = P.Solved { sample_solved with cached = true } };
    roundtrip_response "pong round-trips" { rid = Some "p"; reply = P.Pong };
    roundtrip_response "stats reply round-trips"
      { rid = None; reply = P.Stats_reply sample_stats };
    roundtrip_response "stopping round-trips" { rid = Some "bye"; reply = P.Stopping };
    case "every error code survives the wire" (fun () ->
        List.iter
          (fun code ->
            let resp = { P.rid = Some "x"; reply = P.Failed (code, "boom") } in
            match P.response_of_line (P.response_to_line resp) with
            | Ok resp' ->
                check_bool (P.error_code_id code) true (P.equal_response resp resp')
            | Error msg -> Alcotest.failf "%s: %s" (P.error_code_id code) msg)
          all_codes);
    case "error code ids are total and invertible" (fun () ->
        List.iter
          (fun c ->
            match P.error_code_of_id (P.error_code_id c) with
            | Some c' -> check_bool (P.error_code_id c) true (c = c')
            | None -> Alcotest.failf "id %s did not invert" (P.error_code_id c))
          all_codes);
    case "garbage line is bad_request" (fun () ->
        match P.request_of_line "this is not json" with
        | Error (P.Bad_request, _) -> ()
        | Error (c, _) -> Alcotest.failf "wrong code %s" (P.error_code_id c)
        | Ok _ -> Alcotest.fail "parsed garbage");
    case "unknown op is unsupported" (fun () ->
        match P.request_of_line "{\"v\":1,\"op\":\"dance\"}" with
        | Error (P.Unsupported, _) -> ()
        | Error (c, _) -> Alcotest.failf "wrong code %s" (P.error_code_id c)
        | Ok _ -> Alcotest.fail "parsed unknown op");
    case "future protocol version is unsupported" (fun () ->
        match P.request_of_line "{\"v\":2,\"op\":\"ping\"}" with
        | Error (P.Unsupported, msg) -> check_bool "names version" true (contains msg "version")
        | Error (c, _) -> Alcotest.failf "wrong code %s" (P.error_code_id c)
        | Ok _ -> Alcotest.fail "accepted v2");
    case "solve without a graph is bad_request" (fun () ->
        match P.request_of_line "{\"v\":1,\"op\":\"solve\",\"seed\":1}" with
        | Error (P.Bad_request, _) -> ()
        | Error (c, _) -> Alcotest.failf "wrong code %s" (P.error_code_id c)
        | Ok _ -> Alcotest.fail "parsed a graphless solve");
    case "solve defaults: algorithm ckl, starts 2, seed 1" (fun () ->
        let line =
          "{\"v\":1,\"op\":\"solve\",\"graph\":{\"format\":\"edge-list\",\"data\":\"2 1\\n0 1\\n\"}}"
        in
        match P.request_of_line line with
        | Ok (P.Solve s) ->
            check_bool "algorithm" true (s.algorithm = `Ckl);
            check_int "starts" 2 s.starts;
            check_int "seed" 1 s.seed;
            check_bool "no id" true (s.id = None)
        | Ok _ -> Alcotest.fail "not a solve"
        | Error (_, msg) -> Alcotest.failf "rejected: %s" msg);
  ]

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

let frames_tests =
  [
    case "partial chunks reassemble into one line" (fun () ->
        let f = P.Frames.create ~max_frame:1024 in
        check_bool "no frame yet" true (P.Frames.feed f "hel" = []);
        check_bool "still buffering" true (P.Frames.feed f "lo wor" = []);
        check_int "pending bytes" 9 (P.Frames.pending f);
        match P.Frames.feed f "ld\nnext" with
        | [ `Line "hello world" ] -> check_int "tail buffered" 4 (P.Frames.pending f)
        | _ -> Alcotest.fail "expected exactly one completed line");
    case "multiple lines in one chunk come out in order" (fun () ->
        let f = P.Frames.create ~max_frame:1024 in
        match P.Frames.feed f "a\nb\nc\n" with
        | [ `Line "a"; `Line "b"; `Line "c" ] -> ()
        | _ -> Alcotest.fail "wrong frames");
    case "CRLF is stripped and blank lines are dropped" (fun () ->
        let f = P.Frames.create ~max_frame:1024 in
        match P.Frames.feed f "one\r\n\n\r\ntwo\n" with
        | [ `Line "one"; `Line "two" ] -> ()
        | _ -> Alcotest.fail "wrong frames");
    case "oversized line reported once, then framing resumes" (fun () ->
        let f = P.Frames.create ~max_frame:8 in
        let frames = P.Frames.feed f (String.make 20 'x') in
        check_bool "one oversized report" true
          (match frames with [ `Oversized n ] -> n > 8 | _ -> false);
        check_bool "rest of the monster is swallowed silently" true
          (P.Frames.feed f (String.make 50 'x') = []);
        match P.Frames.feed f "\nok\n" with
        | [ `Line "ok" ] -> ()
        | _ -> Alcotest.fail "framing did not resume after the newline");
  ]

(* ------------------------------------------------------------------ *)
(* Service semantics ([handle], no socket)                             *)

let test_graph =
  (* Big enough that algorithms do real work, small enough to be instant. *)
  Gbisect.Gnp.with_average_degree (Gbisect.Rng.create ~seed:99) ~n:40 ~avg_degree:3.0

let solve_request ?id ?(algorithm = `Ckl) ?(starts = 3) ?(seed = 7) () : P.request
    =
  P.Solve
    {
      id;
      format = P.Edge_list;
      data = Gbisect.Graph_io.to_edge_list_string test_graph;
      algorithm;
      starts;
      seed;
    }

let quiet_config = Server.default_config

let expect_solved (resp : P.response) =
  match resp.reply with
  | P.Solved s -> s
  | P.Failed (c, msg) -> Alcotest.failf "failed %s: %s" (P.error_code_id c) msg
  | _ -> Alcotest.fail "not a solve reply"

let uniq =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

let with_store f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gbisect-test-serve-%d-%d" (Unix.getpid ()) (uniq ()))
  in
  let store = Gbisect.Store.open_store ~readable:true dir in
  let rec rm_rf path =
    match Sys.is_directory path with
    | exception Sys_error _ -> ()
    | true ->
        Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
        Sys.rmdir path
    | false -> Sys.remove path
  in
  Fun.protect
    ~finally:(fun () ->
      Gbisect.Store.close store;
      rm_rf dir)
    (fun () -> f store)

let handle_tests =
  [
    case "served solve is byte-identical to Gbisect.solve" (fun () ->
        let server = Server.create quiet_config in
        List.iter
          (fun algorithm ->
            let starts = 3 and seed = 7 in
            let resp = Server.handle server (solve_request ~algorithm ~starts ~seed ()) in
            let s = expect_solved resp in
            let local =
              Gbisect.solve ~algorithm ~starts (Gbisect.Rng.create ~seed) test_graph
            in
            let name = Gbisect.Algo.id algorithm in
            check_int (name ^ " cut") (Gbisect.Bisection.cut local.Gbisect.bisection) s.cut;
            Alcotest.(check (array int))
              (name ^ " sides")
              (Gbisect.Bisection.sides local.Gbisect.bisection)
              s.side;
            check_bool (name ^ " fresh") false s.cached)
          all_algorithms);
    case "repeat query hits the cache with identical payload" (fun () ->
        with_store (fun store ->
            let server = Server.create { quiet_config with store = Some store } in
            let first = expect_solved (Server.handle server (solve_request ())) in
            let second = expect_solved (Server.handle server (solve_request ())) in
            check_bool "first is fresh" false first.cached;
            check_bool "second is cached" true second.cached;
            check_int "same cut" first.cut second.cut;
            Alcotest.(check (array int)) "same sides" first.side second.side;
            check_bool "seconds replayed verbatim" true
              (first.seconds = second.seconds);
            let st = Server.stats server in
            check_int "one hit" 1 st.cache_hits;
            check_int "one miss" 1 st.cache_misses));
    case "different seed misses the cache" (fun () ->
        with_store (fun store ->
            let server = Server.create { quiet_config with store = Some store } in
            ignore (expect_solved (Server.handle server (solve_request ~seed:7 ())));
            ignore (expect_solved (Server.handle server (solve_request ~seed:8 ())));
            check_int "no hits" 0 (Server.stats server).cache_hits));
    case "sub-2-vertex graph is bad_request" (fun () ->
        let server = Server.create quiet_config in
        let req =
          P.Solve
            { id = None; format = P.Edge_list; data = "1 0\n"; algorithm = `Ckl;
              starts = 1; seed = 1 }
        in
        match (Server.handle server req).reply with
        | P.Failed (P.Bad_request, msg) -> check_bool "explains" true (contains msg "vertices")
        | _ -> Alcotest.fail "expected bad_request");
    case "malformed graph payload is bad_request" (fun () ->
        let server = Server.create quiet_config in
        let req =
          P.Solve
            { id = None; format = P.Edge_list; data = "not a graph"; algorithm = `Ckl;
              starts = 1; seed = 1 }
        in
        match (Server.handle server req).reply with
        | P.Failed (P.Bad_request, _) -> ()
        | _ -> Alcotest.fail "expected bad_request");
    case "starts above the cap is bad_request" (fun () ->
        let server = Server.create { quiet_config with starts_cap = 4 } in
        match (Server.handle server (solve_request ~starts:5 ())).reply with
        | P.Failed (P.Bad_request, msg) -> check_bool "names cap" true (contains msg "cap")
        | _ -> Alcotest.fail "expected bad_request");
    case "shutdown drains: stopping ack, then shutting_down errors" (fun () ->
        let server = Server.create quiet_config in
        check_bool "not stopping" false (Server.stopping server);
        (match (Server.handle server (P.Shutdown (Some "bye"))).reply with
        | P.Stopping -> ()
        | _ -> Alcotest.fail "expected stopping ack");
        check_bool "stopping" true (Server.stopping server);
        match (Server.handle server (solve_request ())).reply with
        | P.Failed (P.Shutting_down, _) -> ()
        | _ -> Alcotest.fail "expected shutting_down");
    case "stats counts requests and errors" (fun () ->
        let server = Server.create quiet_config in
        (match (Server.handle server (P.Ping None)).reply with
        | P.Pong -> ()
        | _ -> Alcotest.fail "expected pong");
        ignore (expect_solved (Server.handle server (solve_request ())));
        let st =
          match (Server.handle server (P.Stats None)).reply with
          | P.Stats_reply st -> st
          | _ -> Alcotest.fail "expected stats"
        in
        check_int "requests" 3 st.requests;
        check_int "solved" 1 st.solved;
        check_int "errors" 0 st.errors;
        check_int "capacity" quiet_config.queue_capacity st.queue_capacity);
    case "edge list, edited edge list and METIS of one graph share a cache entry" (fun () ->
        (* SERVING.md §1's 4-cycle: canonical, then CRLF with a comment,
           tabs, doubled spaces, swapped endpoints and the edges
           reversed, then METIS. Only the first is computed. *)
        let canonical = "4 4\n0 1\n0 3\n1 2\n2 3\n" in
        Alcotest.(check string)
          "canonical" canonical
          (Gio.to_edge_list_string (Gio.of_edge_list_string "4 4\n0 1\n1 2\n2 3\n3 0\n"));
        let edited = "# the quick-start 4-cycle\r\n4\t4\r\n3  2\r\n2\t1 # ring\r\n3 0\r\n1  0\r\n" in
        let metis = "4 4\n2 4\n1 3\n2 4\n1 3\n" in
        with_store (fun store ->
            let server = Server.create { quiet_config with store = Some store } in
            let solve format data =
              expect_solved
                (Server.handle server
                   (P.Solve { id = None; format; data; algorithm = `Ckl; starts = 2; seed = 42 }))
            in
            let a = solve P.Edge_list canonical in
            let b = solve P.Edge_list edited in
            let c = solve P.Metis metis in
            check_bool "canonical misses" false a.cached;
            check_bool "edited edge list hits" true b.cached;
            check_bool "METIS hits" true c.cached;
            List.iter
              (fun (s : P.solved) ->
                check_int "same cut" a.cut s.cut;
                Alcotest.(check (array int)) "same side" a.side s.side)
              [ b; c ];
            let st = Server.stats server in
            check_int "one miss" 1 st.cache_misses;
            check_int "two hits" 2 st.cache_hits));
    case "canonical renderings keep their digests" (fun () ->
        (* The cache key hashes these bytes: a renderer that changed them
           would orphan every existing --store. *)
        let digest g = Digest.to_hex (Digest.string (Gio.to_edge_list_string g)) in
        Alcotest.(check string) "ladder 4" "75d6e9a1bd7a66f6fb48781ffe582876" (digest (Gbisect.Classic.ladder 4));
        Alcotest.(check string)
          "weighted" "3c9ae59693ff4706fa2a675866bdf48c"
          (digest
             (Gbisect.Graph.of_edges ~n:6
                [ (0, 1, 3); (1, 2, 1); (2, 3, 7); (3, 4, 2); (4, 5, 12); (5, 0, 1); (0, 3, 40) ])));
    case "a ping id's \\u escapes come back as UTF-8" (fun () ->
        let server = Server.create quiet_config in
        let emoji = "\xf0\x9f\x98\x80" in
        (match P.request_of_line {|{"v":1,"op":"ping","id":"\ud83d\ude00"}|} with
        | Ok req ->
            let line = P.response_to_line (Server.handle server req) in
            Alcotest.(check string)
              "response bytes"
              ({|{"v":1,"id":"|} ^ emoji ^ {|","ok":true,"result":{"pong":true}}|})
              line;
            check_bool "id round-trips" true
              (match P.response_of_line line with Ok r -> r.rid = Some emoji | Error _ -> false)
        | Error (_, msg) -> Alcotest.failf "rejected: %s" msg);
        match P.request_of_line {|{"v":1,"op":"ping","id":"\u1_23"}|} with
        | Error (P.Bad_request, msg) -> check_bool msg true (contains msg "bad \\u escape")
        | _ -> Alcotest.fail "accepted \\u1_23");
  ]

(* ------------------------------------------------------------------ *)
(* Live daemon over a Unix socket                                      *)

let exe =
  let candidates =
    [ "../bin/gbisect_cli.exe"; "_build/default/bin/gbisect_cli.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> Filename.concat (Sys.getcwd ()) p
  | None -> Filename.concat (Sys.getcwd ()) (List.hd candidates)

let wait_for_socket path =
  (* 200 polls x 50 ms = a 10 s budget, without reading the wall clock. *)
  let rec go attempts =
    if Sys.file_exists path then ()
    else if attempts = 0 then
      Alcotest.fail "daemon did not create its socket within 10s"
    else begin
      ignore (Unix.select [] [] [] 0.05);
      go (attempts - 1)
    end
  in
  go 200

(* Spawn `gbisect serve` on a fresh Unix socket, run [f addr], then
   SIGTERM the daemon and require a clean exit. *)
let with_daemon ?(args = []) f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gbisect-daemon-%d-%d" (Unix.getpid ()) (uniq ()))
  in
  Sys.mkdir dir 0o700;
  let sock = Filename.concat dir "serve.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
  in
  let pid =
    Unix.create_process exe
      (Array.of_list (([ exe; "serve"; "unix:" ^ sock; "--jobs"; "1" ] @ args)))
      devnull log log
  in
  Unix.close devnull;
  Unix.close log;
  Fun.protect
    ~finally:(fun () ->
      (* Belt and braces: if the test already reaped it, this is ESRCH. *)
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [ Unix.WNOHANG ] pid) with Unix.Unix_error _ -> ());
      let rec rm_rf path =
        match Sys.is_directory path with
        | exception Sys_error _ -> ()
        | true ->
            Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
            Sys.rmdir path
        | false -> Sys.remove path
      in
      rm_rf dir)
    (fun () ->
      wait_for_socket sock;
      f sock;
      Unix.kill pid Sys.sigterm;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c -> Alcotest.failf "daemon exited %d after SIGTERM" c
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
          Alcotest.failf "daemon killed/stopped by signal %d" s)

let daemon_tests =
  [
    case "ping, solve, repeat (cached), stats over a Unix socket" (fun () ->
        with_daemon (fun sock ->
            let client = Client.connect (Server.Unix_path sock) in
            Fun.protect
              ~finally:(fun () -> Client.close client)
              (fun () ->
                (match (Client.call ~timeout:10.0 client (P.Ping (Some "hi"))).reply with
                | P.Pong -> ()
                | _ -> Alcotest.fail "expected pong");
                let req id = match solve_request ~id () with
                  | P.Solve s -> P.Solve { s with id = Some id }
                  | r -> r
                in
                let first =
                  expect_solved (Client.call ~timeout:30.0 client (req "a"))
                in
                let second =
                  expect_solved (Client.call ~timeout:30.0 client (req "b"))
                in
                check_bool "first fresh" false first.cached;
                check_bool "second cached" true second.cached;
                check_int "same cut" first.cut second.cut;
                Alcotest.(check (array int)) "same sides" first.side second.side;
                (* And byte-identical to a local solve of the same job. *)
                let local =
                  Gbisect.solve ~algorithm:`Ckl ~starts:3
                    (Gbisect.Rng.create ~seed:7) test_graph
                in
                check_int "matches local solve"
                  (Gbisect.Bisection.cut local.Gbisect.bisection)
                  first.cut;
                let resp = Client.call ~timeout:10.0 client (P.Stats None) in
                match resp.reply with
                | P.Stats_reply st ->
                    check_int "cache hits" 1 st.cache_hits;
                    check_bool "requests counted" true (st.requests >= 4)
                | _ -> Alcotest.fail "expected stats"));
        );
    case "garbage and oversized lines get error responses, socket survives"
      (fun () ->
        with_daemon ~args:[ "--max-frame"; "4096" ] (fun sock ->
            let client = Client.connect (Server.Unix_path sock) in
            Fun.protect
              ~finally:(fun () -> Client.close client)
              (fun () ->
                Client.send client (P.Ping None);
                (* Raw garbage between two valid requests. *)
                let fd = Client.fd client in
                let garbage = "this is not json\n" in
                ignore (Unix.write_substring fd garbage 0 (String.length garbage));
                let huge = String.make 8192 'x' ^ "\n" in
                ignore (Unix.write_substring fd huge 0 (String.length huge));
                Client.send client (P.Ping (Some "after"));
                let r1 = Client.recv ~timeout:10.0 client in
                let r2 = Client.recv ~timeout:10.0 client in
                let r3 = Client.recv ~timeout:10.0 client in
                let r4 = Client.recv ~timeout:10.0 client in
                check_bool "pong first" true (r1.reply = P.Pong);
                (match r2.reply with
                | P.Failed (P.Bad_request, _) -> ()
                | _ -> Alcotest.fail "garbage should be bad_request");
                (match r3.reply with
                | P.Failed (P.Too_large, _) -> ()
                | _ -> Alcotest.fail "oversized should be too_large");
                check_bool "pong after errors" true (r4.reply = P.Pong))));
    case "bombard drives the daemon and reports cache hits" (fun () ->
        with_daemon (fun sock ->
            let out = Filename.temp_file "gbisect_bombard" ".json" in
            Fun.protect
              ~finally:(fun () -> Sys.remove out)
              (fun () ->
                let cmd =
                  Printf.sprintf "%s bombard %s -n 40 -c 4 --repeat 0.5 --seed 3 --out %s > /dev/null 2>&1"
                    (Filename.quote exe)
                    (Filename.quote ("unix:" ^ sock))
                    (Filename.quote out)
                in
                check_int "bombard exits 0" 0 (Sys.command cmd);
                let ic = open_in out in
                let artifact =
                  Fun.protect
                    ~finally:(fun () -> close_in_noerr ic)
                    (fun () -> really_input_string ic (in_channel_length ic))
                in
                let json = Gbisect.Obs.Json.of_string (String.trim artifact) in
                let member path =
                  List.fold_left
                    (fun acc k -> Option.bind acc (Gbisect.Obs.Json.member k))
                    (Some json) path
                in
                check_bool "schema_version 1" true
                  (member [ "schema_version" ] = Some (Gbisect.Obs.Json.Int 1));
                check_bool "suite serve" true
                  (member [ "suite" ] = Some (Gbisect.Obs.Json.String "serve"));
                check_bool "host fingerprint present" true
                  (member [ "host"; "ocaml_version" ] <> None);
                (match member [ "results"; "solved" ] with
                | Some (Gbisect.Obs.Json.Int n) -> check_int "all solved" 40 n
                | _ -> Alcotest.fail "results.solved missing");
                match member [ "results"; "cache_hits" ] with
                | Some (Gbisect.Obs.Json.Int n) ->
                    check_bool "nonzero cache hits" true (n > 0)
                | _ -> Alcotest.fail "results.cache_hits missing")));
  ]

(* ------------------------------------------------------------------ *)
(* Bombard plan                                                        *)

(* The generator the CLI injects. *)
let make_case ~seed =
  match Gbisect.Fuzz_generators.generate ~seed with
  | exception Failure _ -> None
  | { graph; _ } when Gbisect.Graph.n_vertices graph < 2 -> None
  | { family; graph; _ } -> Some (family, graph)

let plan_tests =
  [
    case "a 2000-request plan matches its pinned digest" (fun () ->
        let params =
          {
            Gbisect.Bombard.default_params with
            requests = 2000;
            concurrency = 2;
            repeat_ratio = 0.7;
            seed = 3;
          }
        in
        let plan = Gbisect.Bombard.build_plan ~make_case params in
        Array.iteri
          (fun i (p : Gbisect.Bombard.planned) ->
            check_bool "id is the plan index" true (p.solve.id = Some (string_of_int i)))
          plan;
        let lines =
          Array.map
            (fun (p : Gbisect.Bombard.planned) ->
              p.family ^ " " ^ P.request_to_line (P.Solve p.solve))
            plan
        in
        Alcotest.(check string)
          "digest" "9405ca314b3a3020c7430410bba8e252"
          (Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list lines)))));
  ]

let () =
  Alcotest.run "serve"
    [
      ("codec", codec_tests);
      ("frames", frames_tests);
      ("handle", handle_tests);
      ("daemon", daemon_tests);
      ("plan", plan_tests);
    ]
