(* Per-layer measurement for the traced run. Three sources, none of
   which adds instrumentation to the program:
   - the program's own Gb_obs.Trace spans, captured in memory for the
     in-process workloads or read back from `serve --trace FILE`, and
     attributed to the libraries that emit them;
   - GC counters around the traced operations;
   - outside timings of the serve path's public calls (pool fan-out,
     protocol codec, graph parsing and canonicalisation, result store)
     on the workload's own graphs and answers. *)

open Measure
module G = Gbisect
module P = G.Serve_protocol
module Trace = G.Obs.Trace

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type event = {
  name : string;
  instant : bool;
  ts : float;  (* µs *)
  dur : float;  (* µs; 0 for instants *)
  tid : int;
  args : Json.t;
  mutable parent : int;  (* innermost enclosing span on the same domain, or -1 *)
  mutable children : float;  (* µs covered by direct child spans *)
}

let captured = Buffer.create 65536

(* The sink serialises its writes, and [take] runs between operations,
   when every pool domain has been joined. *)
let capture_start () =
  Buffer.clear captured;
  Trace.set (Trace.of_writer (Buffer.add_string captured))

let capture_stop () = Trace.close ()

let take () =
  let text = Buffer.contents captured in
  Buffer.clear captured;
  text

(* Events from the lines of a trace, those starting before [since] (s on
   the wall clock) left out. *)
let parse ?(since = Float.neg_infinity) text =
  let event line =
    let j = Json.of_string line in
    let field k = Json.member k j in
    let num k = Option.value (Option.bind (field k) Json.to_float) ~default:0. in
    {
      name = (match field "name" with Some (Json.String s) -> s | _ -> "");
      instant = field "ph" = Some (Json.String "i");
      ts = num "ts";
      dur = num "dur";
      tid = int_of_float (num "tid");
      args = Option.value (field "args") ~default:Json.Null;
      parent = -1;
      children = 0.;
    }
  in
  let events =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "")
    |> List.map event
    |> List.filter (fun e -> e.ts >= since *. 1e6)
    |> Array.of_list
  in
  (* Per domain in start order, enclosing spans first; a stack of open
     spans then gives every event its parent. *)
  Array.stable_sort
    (fun a b ->
      match Int.compare a.tid b.tid with
      | 0 -> ( match Float.compare a.ts b.ts with 0 -> Float.compare b.dur a.dur | c -> c)
      | c -> c)
    events;
  let stack = ref [] in
  Array.iteri
    (fun i e ->
      let rec open_at = function
        | j :: rest when events.(j).tid <> e.tid || events.(j).ts +. events.(j).dur <= e.ts ->
            open_at rest
        | s -> s
      in
      stack := open_at !stack;
      (match !stack with
      | j :: _ ->
          e.parent <- j;
          events.(j).children <- events.(j).children +. e.dur
      | [] -> ());
      if not e.instant then stack := i :: !stack)
    events;
  events

let arg key e = Option.value (Option.bind (Json.member key e.args) Json.to_float) ~default:0.
let spans events name = List.filter (fun e -> e.name = name && not e.instant) (Array.to_list events)
let sum f events name = List.fold_left (fun acc e -> acc +. f e) 0. (spans events name)

(* Layer shares of [busy_s] (the traced operations' wall time times the
   domains they used) and per-operation counts. A layer that does not
   run in a workload reads 0. *)
let span_metrics ~busy_s ~ops events =
  let total name = sum (fun e -> e.dur) events name /. 1e6 in
  let self name = sum (fun e -> e.dur -. e.children) events name /. 1e6 in
  let count name = float_of_int (List.length (spans events name)) in
  let improving name = sum (fun e -> if arg "gain" e > 0. then 1. else 0.) events name in
  let pct s = if busy_s > 0. then 100. *. s /. busy_s else 0. in
  let ratio a b = if b > 0. then 100. *. a /. b else 0. in
  let per_op x = x /. float_of_int (max 1 ops) in
  let top_level =
    Array.fold_left
      (fun acc e -> if e.parent < 0 && not e.instant then acc +. e.dur else acc)
      0. events
    /. 1e6
  in
  let sa_attempted = sum (arg "attempted") events "sa.plateau" in
  [
    metric "matching.match_pct" "%" (pct (total "compaction.match"));
    metric "contraction.contract_pct" "%" (pct (total "compaction.contract"));
    metric "contraction.levels_per_op" "count" (per_op (count "compaction.contract"));
    metric "compaction.coarse_solve_pct" "%" (pct (total "compaction.coarse_refine"));
    (* Projection, rebalance and the refiner's own set-up: what the
       uncoarsening steps spend outside refinement passes. *)
    metric "compaction.uncoarsen_self_pct" "%"
      (pct (self "compaction.uncoarsen" +. total "compaction.project" +. self "compaction.refine"));
    metric "fm.pass_pct" "%" (pct (total "fm.pass"));
    metric "fm.passes_per_op" "count" (per_op (count "fm.pass"));
    metric "fm.improving_pass_pct" "%" (ratio (improving "fm.pass") (count "fm.pass"));
    metric "kl.pass_pct" "%" (pct (total "kl.pass"));
    metric "kl.passes_per_op" "count" (per_op (count "kl.pass"));
    metric "kl.improving_pass_pct" "%" (ratio (improving "kl.pass") (count "kl.pass"));
    metric "kl.pairs_scanned_per_op" "count" (per_op (sum (arg "pairs_scanned") events "kl.pass"));
    metric "kl.gain_bucket_updates_per_op" "count"
      (per_op (sum (arg "bucket_updates") events "kl.pass"));
    metric "sa.anneal_pct" "%" (pct (total "sa.anneal"));
    metric "sa.plateaus_per_op" "count" (per_op (count "sa.plateau"));
    metric "sa.moves_per_op" "count" (per_op sa_attempted);
    metric "sa.accept_pct" "%" (ratio (sum (arg "accepted") events "sa.plateau") sa_attempted);
    metric "serve.solve_pct" "%" (pct (total "serve.solve"));
    metric "unattributed_pct" "%" (pct (busy_s -. top_level));
    metric "obs.trace_events_per_op" "count" (per_op (float_of_int (Array.length events)));
  ]

(* ------------------------------------------------------------------ *)
(* V-cycle levels                                                      *)

type row = {
  vertices : float;
  match_s : float;
  contract_s : float;
  self_s : float;  (* uncoarsening (or, at the coarsest level, initial
                      partition) outside FM passes *)
  fm_passes : float;
  fm_s : float;
}

(* The rows of one V-cycle solve, finest level first. Level k is the
   graph that the k-th matching ran on; a last matching that shrank the
   graph too little to keep belongs to the coarsest level. *)
let vcycle_rows events =
  let indices name =
    List.rev
      (snd
         (Array.fold_left
            (fun (i, acc) e -> (i + 1, if e.name = name then i :: acc else acc))
            (0, []) events))
  in
  let seconds l k = match List.nth_opt l k with Some i -> events.(i).dur /. 1e6 | None -> 0. in
  let matches = indices "compaction.match" and contracts = indices "compaction.contract" in
  let hosts =
    Array.of_list (List.rev (indices "compaction.uncoarsen") @ indices "compaction.coarse_refine")
  in
  Array.to_list
    (Array.mapi
       (fun k h ->
         let passes = List.filter (fun e -> e.parent = h) (spans events "fm.pass") in
         let host = events.(h) in
         {
           vertices = arg "vertices" host;
           match_s = seconds matches k;
           contract_s = seconds contracts k;
           self_s = (host.dur -. host.children) /. 1e6;
           fm_passes = float_of_int (List.length passes);
           fm_s = List.fold_left (fun acc e -> acc +. e.dur) 0. passes /. 1e6;
         })
       hosts)

(* Mean rows over several solves (levels missing from a solve count as
   empty), as detail metrics and as JSON. *)
let level_report per_solve =
  let n = float_of_int (max 1 (List.length per_solve)) in
  let depth = List.fold_left (fun d rows -> max d (List.length rows)) 0 per_solve in
  let rows =
    List.init depth (fun k ->
        let at = List.filter_map (fun rows -> List.nth_opt rows k) per_solve in
        let total f = List.fold_left (fun acc r -> acc +. f r) 0. at /. n in
        {
          vertices = mean (List.map (fun r -> r.vertices) at);
          match_s = total (fun r -> r.match_s);
          contract_s = total (fun r -> r.contract_s);
          self_s = total (fun r -> r.self_s);
          fm_passes = total (fun r -> r.fm_passes);
          fm_s = total (fun r -> r.fm_s);
        })
  in
  let fields r =
    [
      ("vertices", r.vertices, "count");
      ("match_s", r.match_s, "s");
      ("contract_s", r.contract_s, "s");
      ("self_s", r.self_s, "s");
      ("fm_passes", r.fm_passes, "count");
      ("fm_s", r.fm_s, "s");
    ]
  in
  let detail =
    List.concat
      (List.mapi
         (fun k r ->
           List.map (fun (f, v, u) -> metric (Printf.sprintf "level.%d.%s" k f) u v) (fields r))
         rows)
  in
  let json =
    Json.List
      (List.mapi
         (fun k r ->
           Json.Obj
             (("level", Json.Int k) :: List.map (fun (f, v, _) -> (f, Json.Float v)) (fields r)))
         rows)
  in
  let sum_rows =
    List.fold_left
      (fun acc r -> acc +. r.match_s +. r.contract_s +. r.self_s +. r.fm_s)
      0. rows
  in
  (detail, json, sum_rows)

(* ------------------------------------------------------------------ *)
(* GC and counters                                                     *)

(* Words allocated and major collections so far, pool domains that have
   been joined included. *)
let gc_now () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  (s.minor_words +. s.major_words -. s.promoted_words, s.major_collections)

let gc_metrics (w0, c0) (w1, c1) ~ops =
  let per_op x = x /. float_of_int (max 1 ops) in
  [
    metric "gc.alloc_mwords_per_op" "Mwords" (per_op ((w1 -. w0) /. 1e6));
    metric "gc.major_collections_per_op" "count" (per_op (float_of_int (c1 - c0)));
  ]

(* Mean coarse/fine vertex ratio of the contractions since the last
   Metrics reset. *)
let coarse_ratio () =
  let h =
    List.assoc_opt "compaction.contraction_ratio_pct" (G.Obs.Metrics.histograms ())
  in
  metric "contraction.coarse_ratio_pct" "%"
    (match h with
    | Some s when s.G.Obs.Metrics.count > 0 -> s.sum /. float_of_int s.count
    | _ -> 0.)

(* ------------------------------------------------------------------ *)
(* Outside probes                                                      *)

let solved_of ~algorithm g side : P.solved =
  let n0, n1 = G.Bisection.side_counts side in
  {
    algorithm;
    cut = G.Bisection.compute_cut g side;
    n0;
    n1;
    side;
    balanced = G.Bisection.is_count_balanced side;
    seconds = 0.;
    cached = false;
  }

(* Mean µs per call of each serve-path layer on [sample], the workload's
   own graphs with an answer for each. Each probe repeats passes over
   the sample until [budget] seconds have passed. *)
let probes ~budget ~scratch sample =
  let per_call f items =
    let t0 = now () in
    let calls = ref 0 in
    while !calls = 0 || now () -. t0 < budget do
      List.iter
        (fun x ->
          ignore (Sys.opaque_identity (f x));
          incr calls)
        items
    done;
    1e6 *. (now () -. t0) /. float_of_int !calls
  in
  let graphs = List.map fst sample in
  let data = List.map G.Graph_io.to_edge_list_string graphs in
  let lines =
    List.map
      (fun data ->
        P.request_to_line
          (P.Solve
             { id = None; format = P.Edge_list; data; algorithm = `Ckl; starts = 1; seed = 1 }))
      data
  in
  let responses = List.map (fun (_, s) -> { P.rid = None; reply = P.Solved s }) sample in
  let store = G.Store.open_store (Filename.concat scratch "probe-store") in
  let records =
    List.mapi
      (fun i (_, s) -> (G.Store.key [ ("probe", string_of_int i) ], P.solved_to_json s))
      sample
  in
  let pool = G.Pool.create ~domains:2 in
  [
    metric "pool.fanout_us" "us"
      (per_call (fun () -> G.Pool.best_by pool ~compare:Int.compare Fun.id 2) [ () ]);
    metric "protocol.decode_us" "us" (per_call P.request_of_line lines);
    metric "protocol.encode_us" "us" (per_call P.response_to_line responses);
    metric "gio.parse_us" "us" (per_call G.Graph_io.of_edge_list_string data);
    metric "gio.canonicalise_us" "us" (per_call G.Graph_io.to_edge_list_string graphs);
    metric "store.add_us" "us" (per_call (fun (k, v) -> G.Store.add store k v) records);
    metric "store.find_us" "us" (per_call (fun (k, _) -> G.Store.find store k) records);
  ]
