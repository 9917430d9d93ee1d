(* Test-only reference for Gbisect.Fm: the single-pass FM kernel as it
   stood before the per-refine workspace, copied verbatim. Every pass
   copies the assignment, recomputes all gains, builds two fresh
   Gain_buckets and applies its best prefix to another copy. The
   differential tests in test_kl.ml demand that Fm.one_pass and
   Fm.refine return exactly what these functions return. *)

module Csr = Gbisect.Graph
module Bisection = Gbisect.Bisection
module Gain_buckets = Gbisect.Gain_buckets

type config = { max_passes : int }

type stats = Gbisect.Fm.stats = {
  passes : int;
  moves : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

let default_config = { max_passes = 50 }

let check_input g side =
  Bisection.validate_sides g side;
  let c0, c1 = Bisection.side_counts side in
  if abs (c0 - c1) > 1 then invalid_arg "Fm: input bisection is not balanced"

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
  let c = [| c0; c1 |] in
  let commit_tol = n land 1 in
  let moves = Array.make n 0 in
  let cumulative = Array.make n 0 in
  let balanced_at = Array.make n false in
  let running = ref 0 in
  let performed = ref 0 in
  (try
     for i = 0 to n - 1 do
       (* A move from side s is legal if afterwards |c0 - c1| <= 2. *)
       let legal s =
         c.(s) > 0 && abs (c.(s) - 1 - (c.(1 - s) + 1)) <= 2
       in
       let candidate s = if legal s then Gain_buckets.max_gain buckets.(s) else None in
       let from_side =
         match (candidate 0, candidate 1) with
         | None, None -> raise Exit
         | Some _, None -> 0
         | None, Some _ -> 1
         | Some g0, Some g1 ->
             if g0 > g1 then 0
             else if g1 > g0 then 1
             else if c.(0) >= c.(1) then 0
             else 1
       in
       let v, gv =
         match Gain_buckets.pop_max buckets.(from_side) with
         | Some p -> p
         | None -> raise Exit
       in
       locked.(v) <- true;
       side.(v) <- 1 - from_side;
       c.(from_side) <- c.(from_side) - 1;
       c.(1 - from_side) <- c.(1 - from_side) + 1;
       Csr.iter_neighbors g v (fun u w ->
           if not locked.(u) then begin
             let delta = if side.(u) = side.(v) then -2 * w else 2 * w in
             gains.(u) <- gains.(u) + delta;
             Gain_buckets.update buckets.(side.(u)) u gains.(u)
           end);
       running := !running + gv;
       moves.(i) <- v;
       cumulative.(i) <- !running;
       balanced_at.(i) <- abs (c.(0) - c.(1)) <= commit_tol;
       incr performed
     done
   with Exit -> ());
  let best_k = ref 0 and best_gain = ref 0 in
  for i = 0 to !performed - 1 do
    if balanced_at.(i) && cumulative.(i) > !best_gain then begin
      best_gain := cumulative.(i);
      best_k := i + 1
    end
  done;
  if !best_gain <= 0 then (Array.copy side0, 0)
  else begin
    let result = Array.copy side0 in
    for i = 0 to !best_k - 1 do
      result.(moves.(i)) <- 1 - result.(moves.(i))
    done;
    (result, !best_gain)
  end

let one_pass g side =
  check_input g side;
  one_pass_internal g side

let refine ?(config = default_config) g side0 =
  check_input g side0;
  let initial_cut = Bisection.compute_cut g side0 in
  let side = ref (Array.copy side0) in
  let pass_gains = ref [] in
  let moves = ref 0 in
  let passes = ref 0 in
  let cut = ref initial_cut in
  Gb_obs.Telemetry.sample Gb_obs.Span.fm_pass (float_of_int initial_cut);
  (try
     while !passes < config.max_passes do
       let span = Gb_obs.Trace.start () in
       let next, gain = one_pass_internal g !side in
       incr passes;
       pass_gains := gain :: !pass_gains;
       if gain > 0 then begin
         Array.iteri (fun v s -> if s <> next.(v) then incr moves) !side;
         side := next;
         cut := !cut - gain
       end;
       Gb_obs.Telemetry.sample Gb_obs.Span.fm_pass (float_of_int !cut);
       Gb_obs.Trace.finish span Gb_obs.Span.fm_pass
         ~args:[ ("pass", Gb_obs.Json.Int !passes); ("gain", Gb_obs.Json.Int gain) ];
       if gain <= 0 then raise Exit
     done
   with Exit -> ());
  let final_cut = Bisection.compute_cut g !side in
  ( !side,
    {
      passes = !passes;
      moves = !moves;
      initial_cut;
      final_cut;
      pass_gains = List.rev !pass_gains;
    } )
