(* The in-process workloads: the V-cycle through Scale_suite (what
   `gbisect scale` runs) and the paper's best-of-2 protocol through
   Gbisect.solve. An operation is one solve. A run makes passes over a
   fixed list of inputs (V-cycle or paper instances), and an operation
   repeats the same computation, seed included, each time it meets the
   same input. Both run on one domain and are timed in CPU seconds, the
   library's own timings (Scale_suite, trace spans) included. *)

open Measure
module G = Gbisect
module Rng = G.Rng

type op = {
  input : int;  (* the instance it ran on *)
  seconds : float;  (* CPU time *)
  setup : float option;  (* CPU time of set-up inside the operation (V-cycle build) *)
  cut : int;
  failed : bool;
}

let in_process () =
  G.Pool.set_jobs 1;
  G.Obs.Clock.set cpu_now

type timed = {
  op : op;
  cost : float;  (* its CPU time at reference speed *)
  setup_cost : float option;  (* the same for its set-up *)
  kernel : float;  (* the reference kernel's CPU time right after it *)
  wall_ms : float;
}

(* Operations back to back with the reference kernel between each two
   (see Measure.reference). *)
let loop ~seconds ~min_ops op =
  let before = ref (reference ()) in
  timed_loop ~seconds ~min_ops (fun i ->
      let t0 = now () in
      let o = op i in
      let wall_ms = 1000. *. (now () -. t0) in
      let after = reference () in
      let scale s = at_reference_speed s ~before:!before ~after in
      before := after;
      { op = o; cost = scale o.seconds; setup_cost = Option.map scale o.setup; kernel = after; wall_ms })

(* Time of an operation at reference speed: for each input the mean
   over the operations on it, which repeat one computation, averaged
   over the inputs, so that the inputs a run meets once more than the
   others weigh no more. (Across runs, the mean over repeats was
   steadier than their median or least.) *)
let cost_per_op timed =
  let inputs = List.sort_uniq Int.compare (List.map (fun t -> t.op.input) timed) in
  mean
    (List.map
       (fun k ->
         mean (List.filter_map (fun t -> if t.op.input = k then Some t.cost else None) timed))
       inputs)

let failures timed = List.length (List.filter (fun t -> t.op.failed) timed)

(* Untraced, the run measures the end-to-end metrics over [ctx.seconds].
   Traced, it runs the same operations untraced and then traced for half
   that time each, and reports the per-layer metrics. Operation [i]
   runs on input [i mod inputs]. The cut and the peak RSS come from the
   first pass, which every run completes, so they depend on the seed and
   the code only. *)
let run ctx ~inputs ?setup_s ~vcycle ~sample op =
  (* What set-up left behind is collected before anything is timed. *)
  Gc.compact ();
  if not ctx.traced then begin
    let rss = ref Float.nan in
    let timed =
      loop ~seconds:ctx.seconds ~min_ops:inputs (fun i ->
          let o = op i in
          if i = inputs - 1 then rss := peak_rss_mib ();
          o)
    in
    let setup_s =
      match setup_s with
      | Some s -> s
      | None -> median (List.filter_map (fun t -> t.setup_cost) timed)
    in
    let cuts = List.filteri (fun i _ -> i < inputs) (List.map (fun t -> t.op.cut) timed) in
    let attempted = List.length timed and failed = failures timed in
    let wall_ms = List.map (fun t -> t.wall_ms) timed in
    {
      attempted;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "op_ms" "ms" (1000. *. cost_per_op timed);
          metric "cut" "edges" (mean (List.map float_of_int cuts));
          metric "peak_rss_mb" "MiB" !rss;
        ];
      detail =
        [
          metric "ops" "count" (float_of_int attempted);
          metric "op_cpu_ms" "ms" (1000. *. mean (List.map (fun t -> t.op.seconds) timed));
          metric "kernel_ms" "ms" (1000. *. median (List.map (fun t -> t.kernel) timed));
          metric "wall_p50_ms" "ms" (median wall_ms);
          metric "wall_p99_ms" "ms" (percentile 0.99 wall_ms);
          metric "error_rate" "ratio" (float_of_int failed /. float_of_int attempted);
        ];
      levels = Json.Null;
    }
  end
  else begin
    let half = ctx.seconds /. 2. in
    let plain = loop ~seconds:half ~min_ops:1 op in
    G.Obs.Metrics.reset ();
    G.Obs.Metrics.set_enabled true;
    Layers.capture_start ();
    (* Spans and GC counters of each traced operation, the reference
       kernel's left out. *)
    let captured = ref [] and words = ref 0. and majors = ref 0 in
    let traced =
      loop ~seconds:half ~min_ops:1 (fun i ->
          let w0, c0 = Layers.gc_now () in
          let o = op i in
          let w1, c1 = Layers.gc_now () in
          words := !words +. (w1 -. w0);
          majors := !majors + (c1 - c0);
          captured := Layers.parse (Layers.take ()) :: !captured;
          o)
    in
    Layers.capture_stop ();
    G.Obs.Metrics.set_enabled false;
    let per_op = List.rev !captured in
    let n = List.length traced in
    let events = Array.concat per_op in
    let solve_s = List.fold_left (fun acc t -> acc +. t.op.seconds) 0. traced in
    let detail, levels =
      if not vcycle then ([], Json.Null)
      else begin
        let detail, json, rows_s = Layers.level_report (List.map Layers.vcycle_rows per_op) in
        let top_s =
          Array.fold_left
            (fun acc (e : Layers.event) ->
              if e.parent < 0 && not e.instant then acc +. e.dur else acc)
            0. events
          /. 1e6
        in
        let per_op x = x /. float_of_int n in
        ( detail
          @ [
              metric "vcycle.solve_s" "s" (per_op solve_s);
              metric "vcycle.spans_s" "s" (per_op top_s);
              metric "vcycle.rows_s" "s" rows_s;
            ],
          json )
      end
    in
    {
      attempted = List.length plain + n;
      failed = failures plain + failures traced;
      metrics =
        Layers.span_metrics ~busy_s:solve_s ~ops:n events
        @ Layers.gc_metrics (0., 0) (!words, !majors) ~ops:n
        @ [
            Layers.coarse_ratio ();
            metric "server.cache_hit_pct" "%" 0.;
            metric "client.generator_lag_pct" "%" 0.;
            metric "client.ping_wait_pct" "%" 0.;
            metric "obs.trace_overhead_pct" "%"
              (100. *. ((cost_per_op traced /. cost_per_op plain) -. 1.));
          ]
        @ Layers.probes ~budget:(if ctx.smoke then 0. else 0.1) ~scratch:ctx.scratch (sample ());
      detail;
      levels;
    }
  end

(* ------------------------------------------------------------------ *)
(* V-cycle                                                             *)

let vcycle ~inputs ~n ~avg_degree ctx =
  in_process ();
  let n, inputs = if ctx.smoke then (3000, 2) else (n, inputs) in
  let model = G.Scale_suite.Gnp { n; avg_degree } in
  let seed_of i = Rng.substream_seed ~base:ctx.seed (i mod inputs) in
  let op i =
    let r = G.Scale_suite.run ~algorithm:G.Scale_suite.Mlfm ~seed:(seed_of i) model in
    {
      input = i mod inputs;
      seconds = r.solve_seconds;
      setup = Some r.build_seconds;
      cut = r.cut;
      failed = not (r.balanced && r.n = n);
    }
  in
  (* Scale_suite.run builds from [Rng.create ~seed] before solving, so
     this is operation 0's graph; the probe answer is a random
     bisection of it. *)
  let sample () =
    let rng = Rng.create ~seed:(seed_of 0) in
    let g = G.Gnp.with_average_degree rng ~n ~avg_degree in
    [ (g, Layers.solved_of ~algorithm:`Mlfm g (G.Initial.random rng g)) ]
  in
  run ctx ~inputs ~vcycle:true ~sample op

(* ------------------------------------------------------------------ *)
(* The paper's protocol                                                *)

(* The paper's random-graph models, one instance of each per round. *)
let families =
  [
    (fun rng two_n -> G.Fuzz_generators.gbreg_instance rng ~two_n ~b:16 ~d:3);
    (fun rng two_n -> G.Fuzz_generators.gbreg_instance rng ~two_n ~b:16 ~d:4);
    (fun rng two_n -> G.Fuzz_generators.g2set_instance rng ~two_n ~avg_degree:2.5 ~bis:16);
    (fun rng two_n -> G.Gnp.with_average_degree rng ~n:two_n ~avg_degree:3.);
  ]

let valid g (r : G.result) =
  let b = r.bisection in
  let side = G.Bisection.sides b in
  let n0, n1 = G.Bisection.counts b in
  Array.length side = G.Graph.n_vertices g
  && n0 + n1 = G.Graph.n_vertices g
  && G.Bisection.compute_cut g side = G.Bisection.cut b
  && G.Bisection.is_balanced b

let paper (algorithm : [ `Kl | `Sa ]) ctx =
  in_process ();
  let two_n, rounds =
    if ctx.smoke then (200, 2) else match algorithm with `Kl -> (5000, 32) | `Sa -> (1000, 10)
  in
  let setup_s, set =
    repeat_setup ~clock:cpu_now 5 (fun () ->
        let rng = Rng.create ~seed:ctx.seed in
        Array.concat
          (List.init rounds (fun _ -> Array.of_list (List.map (fun f -> f rng two_n) families))))
  in
  let inputs = Array.length set in
  let solve k =
    G.solve ~algorithm:(algorithm :> G.algorithm) ~starts:2 (Rng.substream ~base:ctx.seed k) set.(k)
  in
  (* Untimed warm-up: the first solves of a process run slower. *)
  ignore (solve 0);
  let op i =
    let k = i mod inputs in
    let t0 = cpu_now () in
    let r = solve k in
    {
      input = k;
      seconds = cpu_now () -. t0;
      setup = None;
      cut = G.Bisection.cut r.bisection;
      failed = not (valid set.(k) r);
    }
  in
  (* One instance of each family. *)
  let sample () =
    List.init (List.length families) (fun k ->
        ( set.(k),
          Layers.solved_of
            ~algorithm:(algorithm :> G.Serve_protocol.algorithm)
            set.(k)
            (G.Bisection.sides (solve k).bisection) ))
  in
  run ctx ~inputs ~setup_s ~vcycle:false ~sample op
