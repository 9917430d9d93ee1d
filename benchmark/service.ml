(* The daemon workloads: the real `gbisect serve --jobs 1` process,
   driven over a Unix socket by one client loop in this process on two
   connections. *)

open Measure
module G = Gbisect
module P = G.Serve_protocol
module Rng = G.Rng

(* ------------------------------------------------------------------ *)
(* The daemon and raw connections                                      *)

type daemon = { pid : int; sock : string }
type conn = { fd : Unix.file_descr; frames : P.Frames.t; buf : Bytes.t }

let connect d =
  let deadline = now () +. 10. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> { fd; frames = P.Frames.create ~max_frame:(1 lsl 26); buf = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when now () < deadline
      ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* The response lines that one read completes. *)
let receive c =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | 0 -> failwith "the daemon closed a connection"
  | n ->
      List.map
        (function `Line l -> l | `Oversized _ -> failwith "oversized response")
        (P.Frames.feed c.frames (Bytes.sub_string c.buf 0 n))

let call c request =
  send c (P.request_to_line request);
  let rec await () = match receive c with [] -> await () | line :: _ -> line in
  P.response_of_line (await ())

(* SIGTERM and wait: true when the daemon drained and exited 0. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  match Unix.waitpid [] d.pid with _, Unix.WEXITED 0 -> true | _ -> false

(* Start a daemon with a store of its own and wait until it answers a
   ping on the first of two connections. *)
let start ctx ?trace name =
  let dir = Filename.concat ctx.scratch name in
  mkdir_p dir;
  let sock = Filename.concat dir "d.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let args =
    [ ctx.gbisect; "serve"; "--jobs"; "1"; "--store"; Filename.concat dir "store" ]
    @ (match trace with Some file -> [ "--trace"; file ] | None -> [])
    @ [ "unix:" ^ sock ]
  in
  let d = { pid = Unix.create_process ctx.gbisect (Array.of_list args) Unix.stdin log log; sock } in
  Unix.close log;
  match
    let conns = [| connect d; connect d |] in
    match call conns.(0) (P.Ping None) with
    | Ok { reply = P.Pong; _ } -> conns
    | _ -> failwith "the daemon did not answer a ping"
  with
  | conns -> (d, conns)
  | exception e ->
      ignore (stop_daemon d);
      raise e

let valid g (s : P.solved) =
  let n = G.Graph.n_vertices g in
  Array.length s.side = n
  && Array.for_all (fun x -> x = 0 || x = 1) s.side
  && s.n0 + s.n1 = n
  && s.balanced
  && G.Bisection.is_count_balanced s.side
  && G.Bisection.compute_cut g s.side = s.cut

(* The daemon's mean CPU time per answer over the timed window, and the
   reference kernel's median time: raw figures behind op_ms. *)
let daemon_cpu checkpoints =
  let first = List.hd checkpoints and last = List.hd (List.rev checkpoints) in
  metric "op_cpu_ms" "ms"
    (1000. *. (last.cpu -. first.cpu) /. float_of_int (max 1 (last.ops - first.ops)))

let kernel_ms checkpoints =
  metric "kernel_ms" "ms" (1000. *. median (List.map (fun c -> c.kernel) checkpoints))

(* ------------------------------------------------------------------ *)
(* The shared run                                                      *)

type load = {
  latencies_ms : float list;  (* every timed request (hit) or ping (heavy) *)
  answered : int;  (* solves answered *)
  since : float;  (* start of the client loop *)
  window : float;  (* its wall time *)
  cost_per_op : float;  (* the daemon's CPU seconds per answer at reference speed *)
  cuts : int list;  (* of the fixed-work prefix every run completes *)
  rss_mb : float;  (* the daemon's VmHWM right after that prefix *)
  lag_pct : float;  (* lateness of the ping schedule, % of its period *)
  ping_wait_pct : float;  (* median ping latency, % of the median solve's *)
  attempted : int;
  failed : int;
  sample : (G.Graph.t * P.request * P.solved) list;  (* distinct answered jobs *)
  detail : metric list;
}

(* Untraced: set up (inputs, then a daemon until its first pong) fifteen
   times, then drive the last daemon for [ctx.seconds]; at five, the
   median set-up time of serve-hit spread 11-19 % from run to run, at
   fifteen 6 %. Traced: drive
   an untraced and then a `--trace` daemon for half that time each,
   replay the sample through an in-process Server.handle, which must
   return the daemon's answers, and probe the serve path's layers. *)
let run ctx ~inputs ~drive =
  let started = ref 0 and unclean = ref 0 in
  let start ?trace () =
    incr started;
    start ctx ?trace (Printf.sprintf "daemon-%d" !started)
  in
  let stop (d, conns) =
    Array.iter (fun c -> Unix.close c.fd) conns;
    if not (stop_daemon d) then incr unclean
  in
  let drive_and_stop inputs (d, conns) ~seconds =
    Fun.protect
      ~finally:(fun () -> stop (d, conns))
      (fun () ->
        let load = drive inputs d conns ~seconds in
        match call conns.(0) (P.Stats None) with
        | Ok { reply = P.Stats_reply s; _ } -> (load, s)
        | _ -> failwith "the daemon did not answer stats")
  in
  if not ctx.traced then begin
    let setup_s, (inputs, daemon) =
      repeat_setup 15
        ~dispose:(fun (_, daemon) -> stop daemon)
        (fun () ->
          let inputs = inputs () in
          (inputs, start ()))
    in
    let load, _ = drive_and_stop inputs daemon ~seconds:ctx.seconds in
    let failed = load.failed + !unclean and attempted = load.attempted + !started in
    {
      attempted;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "op_ms" "ms" (1000. *. load.cost_per_op);
          metric "cut" "edges" (mean (List.map float_of_int load.cuts));
          metric "peak_rss_mb" "MiB" load.rss_mb;
        ];
      detail =
        load.detail
        @ [
            metric "wall_p50_ms" "ms" (median load.latencies_ms);
            metric "wall_p99_ms" "ms" (percentile 0.99 load.latencies_ms);
            metric "samples" "count" (float_of_int (List.length load.latencies_ms));
            metric "answered_per_s" "1/s" (float_of_int load.answered /. load.window);
            metric "error_rate" "ratio" (float_of_int failed /. float_of_int attempted);
          ];
      levels = Json.Null;
    }
  end
  else begin
    let inputs = inputs () in
    let half = ctx.seconds /. 2. in
    let plain, _ = drive_and_stop inputs (start ()) ~seconds:half in
    let trace = Filename.concat ctx.scratch "daemon.trace" in
    let load, stats = drive_and_stop inputs (start ~trace ()) ~seconds:half in
    let events =
      Layers.parse ~since:load.since (In_channel.with_open_bin trace In_channel.input_all)
    in
    G.Pool.set_jobs 1;
    let server = G.Serve.create G.Serve.default_config in
    G.Obs.Metrics.reset ();
    G.Obs.Metrics.set_enabled true;
    let gc0 = Layers.gc_now () in
    let mismatches =
      List.length
        (List.filter
           (fun (_, request, (s : P.solved)) ->
             match (G.Serve.handle server request).reply with
             | P.Solved r -> not (r.cut = s.cut && r.side = s.side)
             | _ -> true)
           load.sample)
    in
    let gc1 = Layers.gc_now () in
    G.Obs.Metrics.set_enabled false;
    let replayed = List.length load.sample in
    let hits = stats.cache_hits and misses = stats.cache_misses in
    {
      attempted = plain.attempted + load.attempted + replayed + !started;
      failed = plain.failed + load.failed + mismatches + !unclean;
      metrics =
        Layers.span_metrics ~busy_s:load.window ~ops:load.answered events
        @ Layers.gc_metrics gc0 gc1 ~ops:replayed
        @ [
            Layers.coarse_ratio ();
            metric "server.cache_hit_pct" "%"
              (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
            metric "client.generator_lag_pct" "%" load.lag_pct;
            metric "client.ping_wait_pct" "%" load.ping_wait_pct;
            (* A toy run can be shorter than one tick of the daemon's CPU clock. *)
            metric "obs.trace_overhead_pct" "%"
              (if plain.cost_per_op > 0. then 100. *. ((load.cost_per_op /. plain.cost_per_op) -. 1.)
               else 0.);
          ]
        @ Layers.probes
            ~budget:(if ctx.smoke then 0. else 0.1)
            ~scratch:ctx.scratch
            (List.map (fun (g, _, s) -> (g, s)) load.sample);
      detail = load.detail;
      levels = Json.Null;
    }
  end

(* ------------------------------------------------------------------ *)
(* serve-hit                                                           *)

type job = { graph : int; algorithm : P.algorithm; seed : int }

let solve_request ?id data job =
  P.Solve
    { id; format = P.Edge_list; data; algorithm = job.algorithm; starts = 1; seed = job.seed }

(* Closed loop: each connection sends its next request as soon as the
   previous one is answered, until [seconds] have passed and at least
   [min_ops] were sent. Returns (index, sent, answered, response line)
   in completion order, times on the wall clock, with the loop's start
   and wall time and the requests lost to a 30 s stall or answered
   twice. *)
let closed_loop conns ~seconds ~min_ops ~line_of ~on_answer =
  let inflight = Array.make (Array.length conns) None in
  let next = ref 0 and pending = ref (line_of 0) in
  let records = ref [] and answered = ref 0 and lost = ref 0 in
  let t0 = now () in
  let continuing () = !next < min_ops || now () -. t0 < seconds in
  (* The next line is rendered while the daemon works on this one. *)
  let send_next c =
    send conns.(c) !pending;
    inflight.(c) <- Some (!next, now ());
    incr next;
    pending := line_of !next
  in
  Array.iteri (fun c _ -> send_next c) conns;
  while Array.exists Option.is_some inflight do
    let waiting =
      List.filter (fun c -> inflight.(c) <> None) (List.init (Array.length conns) Fun.id)
    in
    match Unix.select (List.map (fun c -> conns.(c).fd) waiting) [] [] 30. with
    | [], _, _ ->
        lost := !lost + List.length waiting;
        Array.fill inflight 0 (Array.length inflight) None
    | ready, _, _ ->
        List.iter
          (fun c ->
            if List.memq conns.(c).fd ready then
              List.iter
                (fun line ->
                  match inflight.(c) with
                  | Some (i, sent) ->
                      records := (i, sent, now (), line) :: !records;
                      incr answered;
                      on_answer !answered;
                      inflight.(c) <- None;
                      if continuing () then send_next c
                  | None -> incr lost)
                (receive conns.(c)))
          waiting
  done;
  (List.rev !records, t0, now () -. t0, !lost)

type hit_inputs = { graphs : G.Graph.t array; data : string array; jobs : job array; skips : int }

(* Cheap algorithms only, as in gbisect bombard: on toy graphs the
   serve layers, not the solver, set the cost of a request. *)
let hit_algorithms : P.algorithm array = [| `Ckl; `Kl; `Fm; `Multilevel |]

(* One job on each of a set of graphs from the fuzz corpus's 16 usable
   families; a seed whose generator raises is skipped and counted. *)
let hit_inputs (ctx : ctx) () =
  let size = if ctx.smoke then 64 else 4096 in
  let graphs = ref [] and count = ref 0 and skips = ref 0 and k = ref 0 in
  while !count < size do
    (match G.Fuzz_generators.generate ~seed:(Rng.substream_seed ~base:ctx.seed !k) with
    | exception Failure _ -> incr skips
    | { graph; _ } when G.Graph.n_vertices graph < 2 -> ()
    | { graph; _ } ->
        graphs := graph :: !graphs;
        incr count);
    incr k
  done;
  let graphs = Array.of_list (List.rev !graphs) in
  let rng = Rng.create ~seed:ctx.seed in
  let jobs =
    Array.init size (fun i ->
        {
          graph = i;
          algorithm = Rng.pick rng hit_algorithms;
          seed = Rng.substream_seed ~base:ctx.seed i;
        })
  in
  { graphs; data = Array.map G.Graph_io.to_edge_list_string graphs; jobs; skips = !skips }

(* Every job is sent once first, untimed, so the daemon solves and
   stores it; the timed requests then repeat jobs drawn at random, and
   each must come from the store and equal the first answer. Store
   writes are left out of the timed window: on a disk, their latency
   varied several-fold from run to run. *)
let hit (ctx : ctx) =
  let min_ops = if ctx.smoke then 200 else 20_000 in
  let block = if ctx.smoke then 50 else 2_000 in
  let sample_size = if ctx.smoke then 20 else 200 in
  let drive inputs d conns ~seconds =
    let n = Array.length inputs.jobs in
    let request ?id k = solve_request ?id inputs.data.(inputs.jobs.(k).graph) inputs.jobs.(k) in
    let line i k = P.request_to_line (request ~id:(string_of_int i) k) in
    let primes, _, prime_s, _ =
      closed_loop conns ~seconds:0. ~min_ops:n
        ~line_of:(fun i -> line i (i mod n))
        ~on_answer:ignore
    in
    let first = Array.make n None in
    List.iter
      (fun (k, _, _, l) ->
        match P.response_of_line l with
        | Ok { rid = Some id; reply = P.Solved s }
          when id = string_of_int k && s.algorithm = inputs.jobs.(k).algorithm
               && valid inputs.graphs.(inputs.jobs.(k).graph) s ->
            first.(k) <- Some s
        | _ -> ())
      primes;
    let pick = Rng.substream ~base:ctx.seed (-1) in
    let job_of = Hashtbl.create 65536 in
    let line_of i =
      let k = Rng.int pick n in
      Hashtbl.replace job_of i k;
      line i k
    in
    let rss = ref Float.nan in
    let checkpoints = ref [ checkpoint 0 (process_cpu_s d.pid) ] in
    let records, since, window, lost =
      closed_loop conns ~seconds ~min_ops ~line_of ~on_answer:(fun a ->
          if a = min_ops then rss := peak_rss_mib ~pid:d.pid ();
          if a mod block = 0 then checkpoints := checkpoint a (process_cpu_s d.pid) :: !checkpoints)
    in
    let checkpoints = List.rev (checkpoint (List.length records) (process_cpu_s d.pid) :: !checkpoints) in
    let answers =
      List.filter_map
        (fun (i, _, _, l) ->
          let k = Hashtbl.find job_of i in
          match (P.response_of_line l, first.(k)) with
          | Ok { rid = Some id; reply = P.Solved s }, Some f
            when id = string_of_int i && s.cached && s.cut = f.cut && s.side = f.side ->
              Some s
          | _ -> None)
        records
    in
    let primed = List.filter_map Fun.id (Array.to_list first) in
    {
      latencies_ms = List.map (fun (_, sent, answered, _) -> 1000. *. (answered -. sent)) records;
      answered = List.length records;
      since;
      window;
      cost_per_op = median_block_cost checkpoints;
      cuts = List.map (fun (s : P.solved) -> s.cut) primed;
      rss_mb = !rss;
      lag_pct = 0.;
      ping_wait_pct = 0.;
      attempted = n + List.length records + lost;
      failed = n - List.length primed + List.length records - List.length answers + lost;
      sample =
        List.filter_map
          (fun k ->
            Option.map (fun s -> (inputs.graphs.(inputs.jobs.(k).graph), request k, s)) first.(k))
          (List.init (min n sample_size) Fun.id);
      detail =
        [
          metric "requests" "count" (float_of_int (List.length records));
          daemon_cpu checkpoints;
          kernel_ms checkpoints;
          metric "prime_s" "s" prime_s;
          metric "generator_skips" "count" (float_of_int inputs.skips);
        ];
    }
  in
  run ctx ~inputs:(hit_inputs ctx) ~drive

(* ------------------------------------------------------------------ *)
(* serve-heavy                                                         *)

let heavy (ctx : ctx) =
  let min_solves = if ctx.smoke then 3 else 40 and min_pings = if ctx.smoke then 10 else 100 in
  (* A pass over the graphs: every block solves the same mix. *)
  let graphs = if ctx.smoke then 2 else 8 in
  let block = graphs in
  let period = 0.01 in
  let inputs () =
    let n = if ctx.smoke then 300 else 5000 in
    let rng = Rng.create ~seed:ctx.seed in
    Array.init graphs (fun _ ->
        let g = G.Gnp.with_average_degree rng ~n ~avg_degree:4. in
        (g, G.Graph_io.to_edge_list_string g))
  in
  (* Distinct seeds: every heavy solve misses the store. *)
  let job inputs k =
    let graph = k mod Array.length inputs in
    let g, data = inputs.(graph) in
    (g, { graph; algorithm = `Ckl; seed = Rng.substream_seed ~base:ctx.seed k }, data)
  in
  (* Connection A runs a closed loop of solves; connection B sends pings
     open-loop every [period], each timed from when it was due. *)
  let drive inputs d conns ~seconds =
    let a = conns.(0) and b = conns.(1) in
    let line k =
      let _, j, data = job inputs k in
      P.request_to_line (solve_request ~id:(string_of_int k) data j)
    in
    let solves = ref [] and solved = ref 0 and pongs = ref [] in
    let next = ref 0 and pending = ref (line 0) and inflight = ref None in
    let due = Queue.create () and pings = ref 0 and lag = ref 0. and lost = ref 0 in
    let rss = ref Float.nan in
    let checkpoints = ref [ checkpoint 0 (process_cpu_s d.pid) ] in
    let t0 = now () in
    let next_due = ref t0 in
    let continuing () = now () -. t0 < seconds || !next < min_solves || !pings < min_pings in
    let send_next () =
      send a !pending;
      inflight := Some (!next, now ());
      incr next;
      pending := line !next
    in
    send_next ();
    let stalled = ref false in
    while (not !stalled) && (continuing () || !inflight <> None || not (Queue.is_empty due)) do
      let go_on = continuing () in
      if go_on then begin
        let t = now () in
        while !next_due <= t do
          send b (P.request_to_line (P.Ping (Some (string_of_int !pings))));
          Queue.push (!pings, !next_due) due;
          lag := Float.max !lag (t -. !next_due);
          incr pings;
          next_due := !next_due +. period
        done
      end;
      let fds =
        (if !inflight <> None then [ a.fd ] else []) @ if Queue.is_empty due then [] else [ b.fd ]
      in
      let timeout = if go_on then Float.max 0. (!next_due -. now ()) else 30. in
      match Unix.select fds [] [] timeout with
      | [], _, _ when not go_on ->
          stalled := true;
          lost := !lost + Queue.length due + if !inflight <> None then 1 else 0
      | ready, _, _ ->
          if List.memq a.fd ready then
            List.iter
              (fun l ->
                match !inflight with
                | Some (k, sent) ->
                    solves := (k, sent, now (), l) :: !solves;
                    incr solved;
                    if !solved = min_solves then rss := peak_rss_mib ~pid:d.pid ();
                    if !solved mod block = 0 then
                      checkpoints := checkpoint !solved (process_cpu_s d.pid) :: !checkpoints;
                    inflight := None;
                    if continuing () then send_next ()
                | None -> incr lost)
              (receive a);
          if List.memq b.fd ready then
            List.iter
              (fun l ->
                match Queue.take_opt due with
                | Some (j, due_at) -> pongs := (j, now () -. due_at, l) :: !pongs
                | None -> incr lost)
              (receive b)
    done;
    let window = now () -. t0 in
    let checkpoints = List.rev (checkpoint !solved (process_cpu_s d.pid) :: !checkpoints) in
    let answers =
      List.filter_map
        (fun (k, sent, answered, l) ->
          let g, j, data = job inputs k in
          match P.response_of_line l with
          | Ok { rid = Some id; reply = P.Solved s } when id = string_of_int k && valid g s ->
              Some (k, answered -. sent, (g, solve_request data j, s))
          | _ -> None)
        (List.rev !solves)
    in
    let pong_ok (j, _, l) =
      match P.response_of_line l with
      | Ok { rid = Some id; reply = P.Pong } -> id = string_of_int j
      | _ -> false
    in
    let good_pongs = List.filter pong_ok !pongs in
    let ping_ms = List.map (fun (_, s, _) -> 1000. *. s) !pongs in
    let solve_ms = List.map (fun (_, s, _) -> 1000. *. s) answers in
    {
      latencies_ms = ping_ms;
      answered = !solved;
      since = t0;
      window;
      cost_per_op = median_block_cost checkpoints;
      cuts =
        List.filter_map
          (fun (k, _, (_, _, (s : P.solved))) -> if k < min_solves then Some s.cut else None)
          answers;
      rss_mb = !rss;
      lag_pct = 100. *. !lag /. period;
      ping_wait_pct = 100. *. median ping_ms /. median solve_ms;
      attempted = !next + !pings;
      failed = !solved - List.length answers + List.length !pongs - List.length good_pongs + !lost;
      sample =
        List.filteri (fun k _ -> k < Array.length inputs) (List.map (fun (_, _, x) -> x) answers);
      detail =
        [
          metric "solves" "count" (float_of_int !solved);
          daemon_cpu checkpoints;
          kernel_ms checkpoints;
          metric "pings" "count" (float_of_int !pings);
          metric "client.solve_p50_ms" "ms" (median solve_ms);
          metric "client.generator_lag_ms" "ms" (1000. *. !lag);
        ];
    }
  in
  run ctx ~inputs ~drive
