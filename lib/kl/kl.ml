module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Obs = Gb_obs

(* Observability instruments (no-ops unless Gb_obs is switched on). *)
let m_passes = Obs.Metrics.counter "kl.passes"
let m_pairs_scanned = Obs.Metrics.counter "kl.pairs_scanned"
let m_bucket_updates = Obs.Metrics.counter "kl.gain_bucket_updates"
let m_swaps = Obs.Metrics.counter "kl.swaps_committed"
let h_swaps_per_pass = Obs.Metrics.histogram "kl.swaps_per_pass"

let default_max_passes = 50

type stats = {
  passes : int;
  swaps : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

let check_input g side =
  Bisection.validate_sides g side;
  let c0, c1 = Bisection.side_counts side in
  if abs (c0 - c1) > 1 then invalid_arg "Kl: input bisection is not balanced"

let one_pass g side =
  check_input g side;
  let ws = Workspace.create g side in
  let gain, _ = Workspace.kl_pass ws in
  (Workspace.side ws, gain)

let refine ?(max_passes = default_max_passes) g side0 =
  check_input g side0;
  let ws = Workspace.create g side0 in
  let initial_cut = Workspace.cut ws in
  let pass_gains = ref [] in
  let swaps = ref 0 in
  let passes = ref 0 in
  Obs.Telemetry.sample Obs.Span.kl_pass (float_of_int initial_cut);
  (try
     while !passes < max_passes do
       let span = Obs.Trace.start () in
       let gain, kept = Workspace.kl_pass ws in
       let scanned = Workspace.pairs_scanned ws in
       let updates = Workspace.bucket_updates ws in
       incr passes;
       pass_gains := gain :: !pass_gains;
       (* A vertex swaps at most once per pass, so the kept prefix is
          exactly the set of exchanges that changed sides. *)
       swaps := !swaps + kept;
       let cut = Workspace.cut ws in
       Obs.Metrics.incr m_passes;
       Obs.Metrics.add m_pairs_scanned scanned;
       Obs.Metrics.add m_bucket_updates updates;
       Obs.Metrics.add m_swaps kept;
       Obs.Metrics.observe h_swaps_per_pass (float_of_int kept);
       Obs.Telemetry.sample Obs.Span.kl_pass (float_of_int cut);
       Obs.Trace.finish span Obs.Span.kl_pass
         ~args:
           [
             ("pass", Obs.Json.Int !passes);
             ("gain", Obs.Json.Int gain);
             ("cut", Obs.Json.Int cut);
             ("pairs_scanned", Obs.Json.Int scanned);
             ("bucket_updates", Obs.Json.Int updates);
           ];
       if gain <= 0 then raise Exit
     done
   with Exit -> ());
  ( Workspace.side ws,
    {
      passes = !passes;
      swaps = !swaps;
      initial_cut;
      final_cut = Workspace.cut ws;
      pass_gains = List.rev !pass_gains;
    } )

let run rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine g side0 in
  (Bisection.of_sides g side, stats)

module Reference = struct
  (* Quadratic transcription of Figure 2. *)
  let one_pass g side0 =
    check_input g side0;
    let n = Csr.n_vertices g in
    let side = Array.copy side0 in
    let gains = Bisection.all_gains g side in
    let locked = Array.make n false in
    let c0, c1 = Bisection.side_counts side in
    let steps = min c0 c1 in
    let pairs = Array.make (max steps 1) (0, 0) in
    let cumulative = Array.make (max steps 1) 0 in
    let running = ref 0 in
    for i = 0 to steps - 1 do
      let best = ref min_int and best_a = ref (-1) and best_b = ref (-1) in
      for a = 0 to n - 1 do
        if (not locked.(a)) && side.(a) = 0 then
          for b = 0 to n - 1 do
            if (not locked.(b)) && side.(b) = 1 then begin
              let cand = gains.(a) + gains.(b) - (2 * Csr.edge_weight g a b) in
              if cand > !best then begin
                best := cand;
                best_a := a;
                best_b := b
              end
            end
          done
      done;
      let a = !best_a and b = !best_b in
      locked.(a) <- true;
      locked.(b) <- true;
      let flip v =
        side.(v) <- 1 - side.(v);
        Csr.iter_neighbors g v (fun u w ->
            if not locked.(u) then
              if side.(u) = side.(v) then gains.(u) <- gains.(u) - (2 * w)
              else gains.(u) <- gains.(u) + (2 * w))
      in
      flip a;
      flip b;
      running := !running + !best;
      pairs.(i) <- (a, b);
      cumulative.(i) <- !running
    done;
    let best_k = ref 0 and best_gain = ref 0 in
    for i = 0 to steps - 1 do
      if cumulative.(i) > !best_gain then begin
        best_gain := cumulative.(i);
        best_k := i + 1
      end
    done;
    if !best_gain <= 0 then (Array.copy side0, 0)
    else begin
      let result = Array.copy side0 in
      for i = 0 to !best_k - 1 do
        let a, b = pairs.(i) in
        result.(a) <- 1 - result.(a);
        result.(b) <- 1 - result.(b)
      done;
      (result, !best_gain)
    end
end
