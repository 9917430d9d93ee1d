(* "Fine tuning the annealing schedule can be a big job" (paper §VI/VII)
   — this example shows exactly what those knobs do, on one instance.

   We take a sparse planted graph (where schedule quality is visible),
   and sweep: cooling rate, moves-per-temperature and the JAMS cutoff.
   The output shows the quality/time trade-off the paper's authors
   fought by hand.

   Run with:  dune exec examples/annealing_lab.exe *)

let () =
  let rng = Gbisect.Rng.create ~seed:1989 in
  let params = Gbisect.Bregular.{ two_n = 1000; b = 16; d = 3 } in
  let params =
    { params with Gbisect.Bregular.b = Gbisect.Bregular.nearest_feasible_b params }
  in
  let graph = Gbisect.Bregular.generate rng params in
  Format.printf "instance: %a, planted cut %d@.@." Gbisect.Graph.pp graph
    params.Gbisect.Bregular.b;

  let run name schedule =
    let t0 = Sys.time () in
    let best = ref max_int and attempts = ref 0 in
    for seed = 1 to 2 do
      let rng = Gbisect.Rng.create ~seed in
      let b, stats = Gbisect.Sa_bisect.run ~schedule rng graph in
      best := min !best (Gbisect.Bisection.cut b);
      attempts := !attempts + stats.Gbisect.Sa_bisect.sa.Gbisect.Sa.attempted
    done;
    Format.printf "  %-34s best cut %4d   %9d moves  %.2fs@." name !best !attempts
      (Sys.time () -. t0)
  in

  let base = Gbisect.Schedule.default in
  Format.printf "cooling rate (geometric factor):@.";
  run "cooling 0.80 (quench)" { base with cooling = 0.80 };
  run "cooling 0.95 (default)" base;
  run "cooling 0.98 (patient)" { base with cooling = 0.98 };

  Format.printf "@.equilibrium size (moves per temperature = f * n):@.";
  run "size_factor 2" { base with size_factor = 2 };
  run "size_factor 8 (default)" base;
  run "size_factor 16" { base with size_factor = 16 };

  Format.printf "@.JAMS cutoff (leave hot temperatures early):@.";
  run "cutoff 1.0 (off, default)" base;
  run "cutoff 0.25" { base with cutoff = 0.25 };
  run "cutoff 0.10" { base with cutoff = 0.10 };

  Format.printf
    "@.(KL, for scale: cut %d in %.3fs — the paper's Observation 4.)@."
    (let b, _ = Gbisect.Kl.run rng graph in
     Gbisect.Bisection.cut b)
    (let t0 = Sys.time () in
     ignore (Gbisect.Kl.run rng graph);
     Sys.time () -. t0)
