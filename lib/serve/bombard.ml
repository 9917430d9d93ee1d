(* Deterministic load generator: plan construction is a pure function
   of the seed; only wall-clock figures vary between runs. *)

module Rng = Gb_prng.Rng
module Gio = Gb_graph.Gio
module Clock = Gb_obs.Clock
module Json = Gb_obs.Json

type params = {
  requests : int;
  concurrency : int;
  repeat_ratio : float;
  starts : int;
  seed : int;
  timeout_seconds : float;
}

type outcome = {
  params : params;
  issued : int;
  solved : int;
  cache_hits : int;
  overloaded : int;
  errors : int;
  wall_seconds : float;
  requests_per_second : float;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  families : (string * int) list;
}

(* ------------------------------------------------------------------ *)
(* Plan                                                               *)
(* ------------------------------------------------------------------ *)

(* Cheap algorithms only: the corpus graphs are tiny, but annealing
   still burns a schedule per request and would turn a throughput
   benchmark into an annealing benchmark. *)
let algorithm_mix : Protocol.algorithm array = [| `Ckl; `Kl; `Fm; `Multilevel |]

type planned = { family : string; solve : Protocol.solve }

let validate p =
  if p.requests < 1 then invalid_arg "bombard: requests must be >= 1";
  if p.concurrency < 1 then invalid_arg "bombard: concurrency must be >= 1";
  if p.starts < 1 then invalid_arg "bombard: starts must be >= 1";
  if not (p.repeat_ratio >= 0.0 && p.repeat_ratio <= 1.0) then
    invalid_arg "bombard: repeat ratio must be within [0,1]";
  if not (p.timeout_seconds > 0.0) then
    invalid_arg "bombard: timeout must be positive"

let build_plan ~make_case p =
  let rng = Rng.create ~seed:p.seed in
  let case_base = Rng.derive_seed rng in
  let next_case = ref 0 in
  let fresh_case () =
    (* Some replay seeds map to sub-2-vertex corpus graphs the server
       (rightly) rejects; skip them. The corpus is overwhelmingly
       usable, so the attempt cap only guards a broken injection. *)
    let rec go attempts =
      if attempts > 10_000 then
        failwith "bombard: case generator produced no usable graphs";
      let s = Rng.substream_seed ~base:case_base !next_case in
      incr next_case;
      match make_case ~seed:s with
      | Some (family, g) -> (family, g, s)
      | None -> go (attempts + 1)
    in
    go 0
  in
  let plan = Array.make p.requests None in
  (* Plan indices of the fresh jobs, in plan order. A repeat draws
     [Rng.int rng fresh] and counts back from the newest fresh job; the
     plan digest in test_serve pins that order. *)
  let fresh_indices = Array.make p.requests 0 in
  let fresh = ref 0 in
  for i = 0 to p.requests - 1 do
    let repeat = !fresh > 0 && Rng.bernoulli rng p.repeat_ratio in
    let item =
      if repeat then begin
        let j = fresh_indices.(!fresh - 1 - Rng.int rng !fresh) in
        let { family; solve } = Option.get plan.(j) in
        { family; solve = { solve with id = Some (string_of_int i) } }
      end
      else begin
        fresh_indices.(!fresh) <- i;
        incr fresh;
        let family, g, case_seed = fresh_case () in
        {
          family;
          solve =
            {
              Protocol.id = Some (string_of_int i);
              format = Protocol.Edge_list;
              data = Gio.to_edge_list_string g;
              algorithm = Rng.pick rng algorithm_mix;
              starts = p.starts;
              seed = case_seed;
            };
        }
      end
    in
    plan.(i) <- Some item
  done;
  Array.map Option.get plan

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

type conn = {
  client : Client.t;
  mutable inflight : (int * float) option;  (* plan index, send time *)
  mutable dead : bool;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let run ?(log = ignore) ~make_case p addr =
  validate p;
  let plan = build_plan ~make_case p in
  let n = Array.length plan in
  let n_conns = min p.concurrency n in
  let conns =
    Array.init n_conns (fun _ ->
        { client = Client.connect addr; inflight = None; dead = false })
  in
  log
    (Printf.sprintf "plan: %d requests over %d connections to %s" n n_conns
       (Server.addr_to_string addr));
  let cursor = ref 0 in
  let issued = ref 0 in
  let solved = ref 0 in
  let cache_hits = ref 0 in
  let overloaded = ref 0 in
  let errors = ref 0 in
  let latencies = ref [] in
  let kill c =
    if not c.dead then begin
      c.dead <- true;
      (match c.inflight with
      | Some _ ->
          incr errors;
          c.inflight <- None
      | None -> ());
      Client.close c.client
    end
  in
  let classify c t0 (resp : Protocol.response) =
    latencies := ((Clock.now () -. t0) *. 1000.0) :: !latencies;
    c.inflight <- None;
    match resp.reply with
    | Protocol.Solved s ->
        incr solved;
        if s.cached then incr cache_hits
    | Protocol.Failed (Protocol.Overloaded, _) -> incr overloaded
    | Protocol.Failed _ -> incr errors
    | Protocol.Pong | Protocol.Stats_reply _ | Protocol.Stopping ->
        (* A reply that cannot answer a solve request. *)
        incr errors
  in
  let t_start = Clock.now () in
  let finished () =
    (!cursor >= n && Array.for_all (fun c -> c.dead || c.inflight = None) conns)
    || Array.for_all (fun c -> c.dead) conns
  in
  while not (finished ()) do
    (* Keep every idle connection loaded with the next planned job. *)
    Array.iter
      (fun c ->
        if (not c.dead) && c.inflight = None && !cursor < n then begin
          let i = !cursor in
          incr cursor;
          match Client.send c.client (Protocol.Solve plan.(i).solve) with
          | () ->
              incr issued;
              c.inflight <- Some (i, Clock.now ())
          | exception Failure _ ->
              incr errors;
              kill c
        end)
      conns;
    let waiting =
      Array.fold_left
        (fun acc c ->
          if (not c.dead) && c.inflight <> None then Client.fd c.client :: acc
          else acc)
        [] conns
    in
    if waiting <> [] then begin
      (match Unix.select waiting [] [] 0.1 with
      | readable, _, _ ->
          Array.iter
            (fun c ->
              if (not c.dead) && List.mem (Client.fd c.client) readable then
                match c.inflight with
                | None -> ()
                | Some (_, t0) -> (
                    match Client.try_recv c.client with
                    | Some resp -> classify c t0 resp
                    | None -> ()
                    | exception Failure msg ->
                        log ("connection error: " ^ msg);
                        kill c))
            conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      let now = Clock.now () in
      Array.iter
        (fun c ->
          match c.inflight with
          | Some (i, t0) when (not c.dead) && now -. t0 > p.timeout_seconds ->
              log (Printf.sprintf "request %d timed out" i);
              kill c
          | _ -> ())
        conns
    end
  done;
  let wall = Clock.now () -. t_start in
  Array.iter kill conns;
  if !issued < n && Array.for_all (fun c -> c.dead) conns then
    failwith
      (Printf.sprintf "bombard: every connection died after %d/%d requests"
         !issued n);
  let sorted = Array.of_list !latencies in
  Array.sort Float.compare sorted;
  let families =
    let counts = Hashtbl.create 16 in
    let order = ref [] in
    Array.iter
      (fun { family; _ } ->
        if not (Hashtbl.mem counts family) then begin
          order := family :: !order;
          Hashtbl.replace counts family 0
        end;
        Hashtbl.replace counts family (Hashtbl.find counts family + 1))
      plan;
    List.rev_map (fun f -> (f, Hashtbl.find counts f)) !order
  in
  {
    params = p;
    issued = !issued;
    solved = !solved;
    cache_hits = !cache_hits;
    overloaded = !overloaded;
    errors = !errors;
    wall_seconds = wall;
    requests_per_second =
      (if wall > 0.0 then float_of_int !issued /. wall else 0.0);
    p50_ms = percentile sorted 0.50;
    p90_ms = percentile sorted 0.90;
    p99_ms = percentile sorted 0.99;
    max_ms = (if Array.length sorted = 0 then 0.0 else sorted.(Array.length sorted - 1));
    families;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let to_json o =
  Gb_obs.Proc.artifact ~suite:"serve"
    [
      ( "params",
        Json.Obj
          [
            ("requests", Json.Int o.params.requests);
            ("concurrency", Json.Int o.params.concurrency);
            ("repeat_ratio", Json.Float o.params.repeat_ratio);
            ("starts", Json.Int o.params.starts);
            ("seed", Json.Int o.params.seed);
          ] );
      ( "results",
        Json.Obj
          [
            ("issued", Json.Int o.issued);
            ("solved", Json.Int o.solved);
            ("cache_hits", Json.Int o.cache_hits);
            ("overloaded", Json.Int o.overloaded);
            ("errors", Json.Int o.errors);
            ("wall_seconds", Json.Float o.wall_seconds);
            ("requests_per_second", Json.Float o.requests_per_second);
            ( "latency_ms",
              Json.Obj
                [
                  ("p50", Json.Float o.p50_ms);
                  ("p90", Json.Float o.p90_ms);
                  ("p99", Json.Float o.p99_ms);
                  ("max", Json.Float o.max_ms);
                ] );
            ( "families",
              Json.Obj (List.map (fun (f, c) -> (f, Json.Int c)) o.families) );
          ] );
    ]

let render o =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "bombard: %d issued, %d solved (%d cached), %d overloaded, %d errors"
    o.issued o.solved o.cache_hits o.overloaded o.errors;
  (* lint: allow no-float-format — display-only console summary, never parsed back *)
  line "         %.2f s wall, %.1f req/s" o.wall_seconds o.requests_per_second;
  (* lint: allow no-float-format — display-only console summary, never parsed back *)
  line "         latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f" o.p50_ms
    o.p90_ms o.p99_ms o.max_ms;
  line "         families: %s"
    (String.concat ", "
       (List.map (fun (f, c) -> Printf.sprintf "%s=%d" f c) o.families));
  Buffer.contents b
