module Bisection = Gb_partition.Bisection

type stats = {
  passes : int;
  moves : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

let check_input g side =
  Bisection.validate_sides g side;
  let c0, c1 = Bisection.side_counts side in
  if abs (c0 - c1) > 1 then invalid_arg "Fm: input bisection is not balanced"

let one_pass g side =
  check_input g side;
  let ws = Workspace.create g side in
  let gain, _ = Workspace.fm_pass ws in
  (Workspace.side ws, gain)

let refine ?(max_passes = 50) g side0 =
  check_input g side0;
  let ws = Workspace.create g side0 in
  let initial_cut = Workspace.cut ws in
  let pass_gains = ref [] in
  let moves = ref 0 in
  let passes = ref 0 in
  Gb_obs.Telemetry.sample Gb_obs.Span.fm_pass (float_of_int initial_cut);
  (try
     while !passes < max_passes do
       let span = Gb_obs.Trace.start () in
       let gain, kept = Workspace.fm_pass ws in
       incr passes;
       pass_gains := gain :: !pass_gains;
       (* A vertex moves at most once per pass, so the kept prefix is
          exactly the set of vertices that changed side. *)
       moves := !moves + kept;
       Gb_obs.Telemetry.sample Gb_obs.Span.fm_pass (float_of_int (Workspace.cut ws));
       Gb_obs.Trace.finish span Gb_obs.Span.fm_pass
         ~args:[ ("pass", Gb_obs.Json.Int !passes); ("gain", Gb_obs.Json.Int gain) ];
       if gain <= 0 then raise Exit
     done
   with Exit -> ());
  ( Workspace.side ws,
    {
      passes = !passes;
      moves = !moves;
      initial_cut;
      final_cut = Workspace.cut ws;
      pass_gains = List.rev !pass_gains;
    } )

let run rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine g side0 in
  (Bisection.of_sides g side, stats)
