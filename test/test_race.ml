(* Tests for lib/race — replica-exchange SA (xsa) and the deterministic
   algorithm portfolio (race) — plus a --jobs check on the V-cycle's
   matching and contraction. The through-line is the determinism
   contract: byte-identical results at any --jobs value (see
   PARALLELISM.md). *)

module Pool = Gbisect.Pool
module Rng = Gbisect.Rng
module Graph = Gbisect.Graph
module Bisection = Gbisect.Bisection
module Matching = Gbisect.Matching
module Contraction = Gbisect.Contraction
module Xsa = Gbisect.Xsa
module Race = Gbisect.Race
module Generators = Gbisect.Fuzz_generators

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let with_jobs = Helpers.with_jobs

(* A fingerprint of everything seed-determined in an xsa run: the
   returned bisection and every schedule-independent stats field
   (seconds-style data does not exist in stats by design). *)
let xsa_fingerprint ?config ?record rng g =
  let b, s = Xsa.run ?config ?record rng g in
  ( Bisection.cut b,
    Bisection.sides b,
    s.Xsa.attempted,
    s.Xsa.accepted,
    s.Xsa.swaps_attempted,
    s.Xsa.swaps_accepted,
    s.Xsa.best_chain,
    s.Xsa.best_was_snapshot,
    Array.to_list (Array.map Array.to_list s.Xsa.trajectories) )

let small_config = { Xsa.chains = 3; rounds = 5; sweeps_per_round = 1 }

(* --- xsa: replica-exchange SA ---------------------------------------------- *)

let xsa_tests =
  [
    case "temperature ladder is geometric, hottest first" (fun () ->
        let ladder = Xsa.temperature_ladder { Xsa.default_config with Xsa.chains = 5 } in
        check_int "length" 5 (Array.length ladder);
        check_bool "top" true (Float.abs (ladder.(0) -. 4.0) < 1e-9);
        check_bool "bottom" true (Float.abs (ladder.(4) -. 0.25) < 1e-9);
        for k = 0 to 3 do
          check_bool "strictly cooling" true (ladder.(k) > ladder.(k + 1));
          (* geometric: constant ratio between adjacent rungs *)
          check_bool "geometric" true
            (Float.abs ((ladder.(k + 1) /. ladder.(k)) -. (ladder.(1) /. ladder.(0)))
             < 1e-9)
        done);
    case "invalid configs are rejected" (fun () ->
        let g = Gbisect.Classic.ladder 8 in
        List.iter
          (fun cfg ->
            match Xsa.run ~config:cfg (Helpers.rng ()) g with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "accepted an invalid config")
          [
            { Xsa.default_config with Xsa.chains = 0 };
            { Xsa.default_config with Xsa.rounds = 0 };
            { Xsa.default_config with Xsa.sweeps_per_round = 0 };
          ]);
    case "chains and swap schedule are pure functions of the seed" (fun () ->
        (* equal caller streams must reproduce every chain's accepted-move
           trajectory and every swap decision, not just the winner *)
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:40 ~p:0.15 in
        let run () =
          xsa_fingerprint ~config:small_config ~record:true
            (Helpers.rng ~seed:5 ()) g
        in
        check_bool "identical runs" true (run () = run ()));
    case "different seeds explore differently" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:40 ~p:0.15 in
        let traj seed =
          let (_, _, _, _, _, _, _, _, t) =
            xsa_fingerprint ~config:small_config ~record:true
              (Helpers.rng ~seed ()) g
          in
          t
        in
        check_bool "trajectories differ" true (traj 5 <> traj 6));
    case "xsa is bit-identical at jobs 1 vs 4" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:60 ~p:0.1 in
        let at jobs =
          with_jobs jobs (fun () ->
              xsa_fingerprint ~config:small_config ~record:true
                (Helpers.rng ~seed:13 ()) g)
        in
        check_bool "same run" true (at 1 = at 4));
    case "xsa advances the caller stream by a fixed amount" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:30 ~p:0.2 in
        let tail jobs =
          with_jobs jobs (fun () ->
              let r = Helpers.rng ~seed:21 () in
              ignore (Xsa.run ~config:small_config r g);
              Array.init 4 (fun _ -> Rng.int r 1_000_000))
        in
        check_bool "jobs-independent tail" true (tail 1 = tail 4));
    case "result is a balanced bisection with a true cut" (fun () ->
        List.iter
          (fun seed ->
            let c = Generators.generate ~seed in
            let g = c.Generators.graph in
            if Graph.n_vertices g > 0 then begin
              let b, s = Xsa.run ~config:small_config (Helpers.rng ~seed ()) g in
              Helpers.check_bisection_consistent g b;
              check_bool "balanced" true (Bisection.is_balanced b);
              check_bool "best chain in range" true
                (s.Xsa.best_chain >= 0 && s.Xsa.best_chain < small_config.Xsa.chains)
            end)
          [ 0; 3; 11; 42; 99; 123 ]);
    case "the empty graph solves trivially" (fun () ->
        let b, _ = Xsa.run (Helpers.rng ()) (Graph.empty 0) in
        check_int "cut" 0 (Bisection.cut b));
    case "solve -a xsa is bit-identical at jobs 1 vs 4" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:50 ~p:0.12 in
        let at jobs =
          with_jobs jobs (fun () ->
              let r = Gbisect.solve ~algorithm:`Xsa ~starts:3 (Helpers.rng ~seed:7 ()) g in
              (Bisection.cut r.Gbisect.bisection, Bisection.sides r.Gbisect.bisection))
        in
        check_bool "same bisection" true (at 1 = at 4));
  ]

(* --- race: deterministic portfolio ----------------------------------------- *)

(* A fixed path 0-1-2-3 where we can name bisections by cut: sides
   [0;0;1;1] cuts 1 edge, [0;1;1;0] cuts 2, [0;1;0;1] cuts 3. *)
let path4 = Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ]

let const_backend name sides =
  { Race.name; solve = (fun _rng g -> Bisection.of_sides g sides) }

let b_cut1 = const_backend "one" [| 0; 0; 1; 1 |]
let b_cut2 = const_backend "two" [| 0; 1; 1; 0 |]
let b_cut3 = const_backend "three" [| 0; 1; 0; 1 |]

let race_tests =
  [
    case "winner is the best cut" (fun () ->
        let o = Race.run ~backends:[ b_cut3; b_cut1; b_cut2 ] (Helpers.rng ()) path4 in
        check_int "winner index" 1 o.Race.winner_index;
        Alcotest.(check string) "winner name" "one" o.Race.winner.Race.backend;
        check_int "winner cut" 1 o.Race.winner.Race.cut;
        check_int "entries" 3 (Array.length o.Race.entries);
        check_int "entry order preserved" 3 o.Race.entries.(0).Race.cut);
    case "ties break to the earliest backend, never wall-clock" (fun () ->
        (* cuts 3,2,2: both cut-2 heats tie; the portfolio order decides *)
        let dup = { b_cut2 with Race.name = "two'" } in
        let o = Race.run ~backends:[ b_cut3; b_cut2; dup ] (Helpers.rng ()) path4 in
        check_int "winner index" 1 o.Race.winner_index;
        Alcotest.(check string) "winner name" "two" o.Race.winner.Race.backend);
    case "an empty portfolio is rejected" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Race.run: empty portfolio")
          (fun () -> ignore (Race.run ~backends:[] (Helpers.rng ()) path4)));
    case "metamorphic: a no-better backend never changes the winner" (fun () ->
        (* append every backend that does not strictly beat the current
           winner; the winner entry must be untouched *)
        let base = [ b_cut2; b_cut3 ] in
        let reference = Race.run ~backends:base (Helpers.rng ~seed:3 ()) path4 in
        List.iter
          (fun extra ->
            let o =
              Race.run ~backends:(base @ [ extra ]) (Helpers.rng ~seed:3 ()) path4
            in
            check_int "winner index" reference.Race.winner_index o.Race.winner_index;
            check_int "winner cut" reference.Race.winner.Race.cut o.Race.winner.Race.cut;
            check_bool "winner sides" true
              (Bisection.sides reference.Race.winner.Race.bisection
              = Bisection.sides o.Race.winner.Race.bisection))
          [ b_cut2; b_cut3; { b_cut2 with Race.name = "echo" } ];
        (* and a strictly better one must win *)
        let o = Race.run ~backends:(base @ [ b_cut1 ]) (Helpers.rng ~seed:3 ()) path4 in
        check_int "better backend wins" 2 o.Race.winner_index);
    case "each heat runs on its own substream of one derived base" (fun () ->
        (* the caller's stream position after a race depends on neither
           the portfolio size nor the job count *)
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:40 ~p:0.15 in
        let tail ~jobs ~portfolio =
          with_jobs jobs (fun () ->
              let r = Helpers.rng ~seed:8 () in
              ignore (Gbisect.race ~portfolio r g);
              Array.init 4 (fun _ -> Rng.int r 1_000_000))
        in
        let reference = tail ~jobs:1 ~portfolio:[ `Kl ] in
        check_bool "portfolio-independent" true
          (tail ~jobs:1 ~portfolio:[ `Kl; `Ckl; `Mlfm ] = reference);
        check_bool "jobs-independent" true
          (tail ~jobs:4 ~portfolio:[ `Kl; `Ckl; `Mlfm ] = reference));
    case "gbisect race is bit-identical at jobs 1 vs 4" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:60 ~p:0.1 in
        let at jobs =
          with_jobs jobs (fun () ->
              let o = Gbisect.race (Helpers.rng ~seed:17 ()) g in
              ( o.Race.winner_index,
                Array.to_list
                  (Array.map
                     (fun e ->
                       (e.Race.backend, e.Race.cut, Bisection.sides e.Race.bisection))
                     o.Race.entries) ))
        in
        check_bool "same outcome" true (at 1 = at 4));
    case "default portfolio names match the wire ids" (fun () ->
        let o = Gbisect.race (Helpers.rng ()) path4 in
        let names =
          Array.to_list (Array.map (fun e -> e.Race.backend) o.Race.entries)
        in
        Alcotest.(check (list string)) "ids"
          (List.map Gbisect.Algo.id Gbisect.default_portfolio)
          names);
  ]

(* --- V-cycle kernels at any --jobs ----------------------------------------- *)

(* One representative case per generator family (first seed in 0..599
   that hits it — test_check proves 600 seeds cover all families). *)
let family_cases =
  let seen = Hashtbl.create 32 in
  let rec scan seed =
    if Hashtbl.length seen < List.length Generators.families && seed < 600 then begin
      let c = Generators.generate ~seed in
      if not (Hashtbl.mem seen c.Generators.family) then
        Hashtbl.replace seen c.Generators.family c;
      scan (seed + 1)
    end
  in
  scan 0;
  List.map
    (fun f ->
      match Hashtbl.find_opt seen f with
      | Some c -> c
      | None -> Alcotest.failf "family %s not generated in 600 seeds" f)
    Generators.families

let kernel_tests =
  [
    case "matching and contraction are identical at jobs 1 vs 4, all families"
      (fun () ->
        List.iter
          (fun c ->
            let g = c.Generators.graph in
            let at jobs =
              with_jobs jobs (fun () ->
                  let m =
                    Matching.random_maximal (Helpers.rng ~seed:c.Generators.seed ()) g
                  in
                  let ct = Contraction.contract g m in
                  (m.Matching.mate, ct.Contraction.fine_to_coarse))
            in
            check_bool c.Generators.family true (at 1 = at 4))
          family_cases);
  ]

let () =
  Alcotest.run "race"
    [
      ("xsa", xsa_tests);
      ("race portfolio", race_tests);
      ("parallel kernels", kernel_tests);
    ]
