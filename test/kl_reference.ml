(* Test-only reference for Gbisect.Kl: the KL pass as it stood before
   the per-refine workspace, copied verbatim. Every pass copies the
   assignment, recomputes all gains, builds two fresh Gain_buckets
   scanned in tandem and applies its best prefix to another copy. The
   differential tests in test_kl.ml demand that Kl.one_pass and
   Kl.refine return exactly what these functions return, and emit the
   same kl.pass span args. *)

module Csr = Gbisect.Graph
module Bisection = Gbisect.Bisection
module Gain_buckets = Gbisect.Gain_buckets
module Obs = Gbisect.Obs

(* Observability instruments (no-ops unless Gb_obs is switched on). *)
let m_passes = Obs.Metrics.counter "kl.passes"
let m_pairs_scanned = Obs.Metrics.counter "kl.pairs_scanned"
let m_bucket_updates = Obs.Metrics.counter "kl.gain_bucket_updates"
let m_swaps = Obs.Metrics.counter "kl.swaps_committed"
let h_swaps_per_pass = Obs.Metrics.histogram "kl.swaps_per_pass"

(* Work done by a single pass, accumulated locally (plain int refs, so
   the hot loops carry no conditional) and published once per pass. *)
type pass_counters = { pairs_scanned : int; bucket_updates : int; committed : int }

type config = { max_passes : int }

type stats = Gbisect.Kl.stats = {
  passes : int;
  swaps : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

let default_config = { max_passes = 50 }

let check_input g side =
  Bisection.validate_sides g side;
  let c0, c1 = Bisection.side_counts side in
  if abs (c0 - c1) > 1 then invalid_arg "Kl: input bisection is not balanced"

(* Tentatively flip [v] and update unlocked neighbours' gains (both the
   array and their bucket, chosen by current side). *)
let flip g side gains locked buckets updates v =
  side.(v) <- 1 - side.(v);
  Csr.iter_neighbors g v (fun u w ->
      if not locked.(u) then begin
        let delta = if side.(u) = side.(v) then -2 * w else 2 * w in
        gains.(u) <- gains.(u) + delta;
        Gain_buckets.update buckets.(side.(u)) u gains.(u);
        incr updates
      end)

(* Exact best-pair selection: scan side-0 vertices in descending gain;
   for each, scan side-1 while the uncorrected sum can still win.
   [scanned] counts candidate pairs actually evaluated. *)
let select_pair g buckets scanned =
  let best = ref min_int and best_a = ref (-1) and best_b = ref (-1) in
  (match Gain_buckets.max_gain buckets.(1) with
  | None -> ()
  | Some max_b ->
      Gain_buckets.iter_desc buckets.(0) ~f:(fun a ga ->
          if ga + max_b <= !best then `Stop
          else begin
            Gain_buckets.iter_desc buckets.(1) ~f:(fun b gb ->
                if ga + gb <= !best then `Stop
                else begin
                  incr scanned;
                  let cand = ga + gb - (2 * Csr.edge_weight g a b) in
                  if cand > !best then begin
                    best := cand;
                    best_a := a;
                    best_b := b
                  end;
                  `Continue
                end);
            `Continue
          end));
  if !best_a < 0 then None else Some (!best_a, !best_b, !best)

let one_pass_internal g side0 =
  let n = Csr.n_vertices g in
  let side = Array.copy side0 in
  let gains = Bisection.all_gains g side in
  let locked = Array.make n false in
  let range =
    let r = ref 1 in
    for v = 0 to n - 1 do
      let d = Csr.weighted_degree g v in
      if d > !r then r := d
    done;
    !r
  in
  let buckets =
    [| Gain_buckets.create ~capacity:n ~range; Gain_buckets.create ~capacity:n ~range |]
  in
  for v = 0 to n - 1 do
    Gain_buckets.insert buckets.(side.(v)) v gains.(v)
  done;
  let c0, c1 = Bisection.side_counts side in
  let steps = min c0 c1 in
  let pairs = Array.make steps (0, 0) in
  let cumulative = Array.make steps 0 in
  let running = ref 0 in
  let performed = ref 0 in
  let scanned = ref 0 in
  let updates = ref 0 in
  (try
     for i = 0 to steps - 1 do
       match select_pair g buckets scanned with
       | None -> raise Exit
       | Some (a, b, gain_ab) ->
           Gain_buckets.remove buckets.(0) a;
           Gain_buckets.remove buckets.(1) b;
           locked.(a) <- true;
           locked.(b) <- true;
           flip g side gains locked buckets updates a;
           flip g side gains locked buckets updates b;
           running := !running + gain_ab;
           pairs.(i) <- (a, b);
           cumulative.(i) <- !running;
           incr performed
     done
   with Exit -> ());
  (* Best prefix. *)
  let best_k = ref 0 and best_gain = ref 0 in
  for i = 0 to !performed - 1 do
    if cumulative.(i) > !best_gain then begin
      best_gain := cumulative.(i);
      best_k := i + 1
    end
  done;
  let counters =
    { pairs_scanned = !scanned; bucket_updates = !updates; committed = !best_k }
  in
  if !best_gain <= 0 then (Array.copy side0, 0, counters)
  else begin
    let result = Array.copy side0 in
    for i = 0 to !best_k - 1 do
      let a, b = pairs.(i) in
      result.(a) <- 1 - result.(a);
      result.(b) <- 1 - result.(b)
    done;
    (result, !best_gain, counters)
  end

let one_pass g side =
  check_input g side;
  let next, gain, _counters = one_pass_internal g side in
  (next, gain)

let refine ?(config = default_config) g side0 =
  check_input g side0;
  let initial_cut = Bisection.compute_cut g side0 in
  let side = ref (Array.copy side0) in
  let pass_gains = ref [] in
  let swaps = ref 0 in
  let passes = ref 0 in
  let cut = ref initial_cut in
  Obs.Telemetry.sample Obs.Span.kl_pass (float_of_int initial_cut);
  (try
     while !passes < config.max_passes do
       let span = Obs.Trace.start () in
       let next, gain, counters = one_pass_internal g !side in
       incr passes;
       pass_gains := gain :: !pass_gains;
       if gain > 0 then begin
         (* Count committed exchanges as the Hamming distance / 2. *)
         let moved = ref 0 in
         Array.iteri (fun v s -> if s <> next.(v) then incr moved) !side;
         swaps := !swaps + (!moved / 2);
         side := next;
         cut := !cut - gain
       end;
       Obs.Metrics.incr m_passes;
       Obs.Metrics.add m_pairs_scanned counters.pairs_scanned;
       Obs.Metrics.add m_bucket_updates counters.bucket_updates;
       Obs.Metrics.add m_swaps (if gain > 0 then counters.committed else 0);
       Obs.Metrics.observe h_swaps_per_pass
         (float_of_int (if gain > 0 then counters.committed else 0));
       Obs.Telemetry.sample Obs.Span.kl_pass (float_of_int !cut);
       Obs.Trace.finish span Obs.Span.kl_pass
         ~args:
           [
             ("pass", Obs.Json.Int !passes);
             ("gain", Obs.Json.Int gain);
             ("cut", Obs.Json.Int !cut);
             ("pairs_scanned", Obs.Json.Int counters.pairs_scanned);
             ("bucket_updates", Obs.Json.Int counters.bucket_updates);
           ];
       if gain <= 0 then raise Exit
     done
   with Exit -> ());
  let final_cut = Bisection.compute_cut g !side in
  ( !side,
    {
      passes = !passes;
      swaps = !swaps;
      initial_cut;
      final_cut;
      pass_gains = List.rev !pass_gains;
    } )
