module Bisection = Gb_partition.Bisection

type config = { max_passes : int; until_no_improvement : bool; tolerance : int }

let default_config = { max_passes = 50; until_no_improvement = true; tolerance = 2 }

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

let one_pass ?(tolerance = default_config.tolerance) g side =
  check_input g side;
  let ws = Workspace.create g side in
  let gain, _ = Workspace.fm_pass ws ~tolerance in
  (Workspace.side ws, gain)

let refine ?(config = default_config) g side0 =
  check_input g side0;
  let initial_cut = Bisection.compute_cut g side0 in
  let ws = Workspace.create g side0 in
  let pass_gains = ref [] in
  let moves = ref 0 in
  let passes = ref 0 in
  let cut = ref initial_cut in
  Gb_obs.Telemetry.sample "fm.pass" (float_of_int initial_cut);
  (try
     while !passes < config.max_passes do
       let span = Gb_obs.Trace.start () in
       let gain, kept = Workspace.fm_pass ws ~tolerance:config.tolerance in
       incr passes;
       pass_gains := gain :: !pass_gains;
       (* A vertex moves at most once per pass, so the kept prefix is
          exactly the set of vertices that changed side. *)
       moves := !moves + kept;
       cut := !cut - gain;
       Gb_obs.Telemetry.sample "fm.pass" (float_of_int !cut);
       Gb_obs.Trace.finish span "fm.pass"
         ~args:[ ("pass", Gb_obs.Json.Int !passes); ("gain", Gb_obs.Json.Int gain) ];
       if gain <= 0 && config.until_no_improvement then raise Exit
     done
   with Exit -> ());
  let final_cut = Bisection.compute_cut g (Workspace.side ws) in
  ( Workspace.side ws,
    {
      passes = !passes;
      moves = !moves;
      initial_cut;
      final_cut;
      pass_gains = List.rev !pass_gains;
    } )

let run ?config rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine ?config g side0 in
  (Bisection.of_sides g side, stats)
