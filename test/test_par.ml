(* Tests for the multicore layer: Gb_par.Pool combinators, the RNG
   fan-out scheme, and the determinism contract — bit-identical results
   at every --jobs value (see PARALLELISM.md). *)

module Pool = Gbisect.Pool
module Rng = Gbisect.Rng
module Obs = Gbisect.Obs
module Telemetry = Obs.Telemetry
module Registry = Gbisect.Registry
module Profile = Gbisect.Profile
module Bisection = Gbisect.Bisection

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let with_jobs = Helpers.with_jobs
let with_constant_clock = Helpers.with_constant_clock

(* --- Pool combinators ------------------------------------------------------ *)

let pool_tests =
  [
    case "init fills every slot in input order, any domain count" (fun () ->
        List.iter
          (fun domains ->
            let pool = Pool.create ~domains in
            check_int "domains" (max 1 domains) (Pool.domains pool);
            (* 97 tasks over 8 domains exercises chunk claiming: more
               chunks than domains, a ragged final chunk *)
            let r = Pool.init pool 97 (fun i -> i * i) in
            check_int "length" 97 (Array.length r);
            Array.iteri
              (fun i x -> check_int (Printf.sprintf "slot %d" i) (i * i) x)
              r)
          [ 0; 1; 2; 4; 8 ]);
    case "map and map_list preserve order" (fun () ->
        let pool = Pool.create ~domains:4 in
        let xs = Array.init 41 (fun i -> i) in
        check_bool "map" true (Pool.map pool (fun x -> 3 * x) xs = Array.map (fun x -> 3 * x) xs);
        let l = List.init 17 (fun i -> string_of_int i) in
        check_bool "map_list" true
          (Pool.map_list pool String.length l = List.map String.length l));
    case "best_by returns the sequential winner (lowest index on ties)" (fun () ->
        let pool = Pool.create ~domains:4 in
        (* keys cycle 0,1,2,0,1,2,... — several indices tie on the
           minimum key 0; the sequential loop keeps the first *)
        let f i = (i mod 3, i) in
        let compare (a, _) (b, _) = Int.compare a b in
        check_bool "lowest index" true (Pool.best_by pool ~compare f 10 = (0, 0));
        check_bool "single" true (Pool.best_by pool ~compare f 1 = (0, 0)));
    case "best_by rejects n < 1" (fun () ->
        Alcotest.check_raises "n" (Invalid_argument "Pool.best_by: n must be >= 1")
          (fun () -> ignore (Pool.best_by (Pool.create ~domains:2) ~compare (fun i -> i) 0)));
    case "a task exception propagates to the caller" (fun () ->
        let pool = Pool.create ~domains:4 in
        Alcotest.check_raises "boom" (Failure "boom") (fun () ->
            ignore (Pool.init pool 32 (fun i -> if i = 7 then failwith "boom" else i))));
    case "nested fan-outs collapse to sequential and stay correct" (fun () ->
        let pool = Pool.create ~domains:4 in
        let r =
          Pool.init pool 6 (fun i ->
              let inner =
                Pool.init (Pool.create ~domains:4) 5 (fun j -> (10 * i) + j)
              in
              Array.fold_left ( + ) 0 inner)
        in
        Array.iteri (fun i x -> check_int "nested sum" ((50 * i) + 10) x) r);
    case "in_worker is false outside a pool task" (fun () ->
        check_bool "outside" false (Pool.in_worker ()));
    case "set_jobs clamps to >= 1 and current picks it up" (fun () ->
        with_jobs 3 (fun () ->
            check_int "jobs" 3 (Pool.jobs ());
            check_int "current" 3 (Pool.domains (Pool.current ())));
        with_jobs 0 (fun () -> check_int "clamped" 1 (Pool.jobs ())));
  ]

(* --- RNG fan-out scheme ---------------------------------------------------- *)

let rng_tests =
  [
    case "substream is a pure function of (base, index)" (fun () ->
        let base = Rng.derive_seed (Helpers.rng ()) in
        let draw i =
          let r = Rng.substream ~base i in
          Array.init 8 (fun _ -> Rng.int r 1_000_000)
        in
        check_bool "reproducible" true (draw 3 = draw 3);
        check_bool "indices differ" true (draw 3 <> draw 4);
        check_bool "bases differ" true
          (let base' = Rng.derive_seed (Helpers.rng ~seed:2 ()) in
           let r = Rng.substream ~base:base' 3 in
           Array.init 8 (fun _ -> Rng.int r 1_000_000) <> draw 3));
    case "a fan-out advances the caller stream by a fixed amount" (fun () ->
        (* the caller's stream position after solve must depend neither
           on the number of starts nor on the job count, or everything
           downstream of a fan-out would lose reproducibility *)
        let g = Gbisect.Classic.ladder 16 in
        let tail ~jobs ~starts =
          with_jobs jobs (fun () ->
              let r = Helpers.rng ~seed:77 () in
              ignore (Gbisect.solve ~algorithm:`Kl ~starts r g);
              Array.init 4 (fun _ -> Rng.int r 1_000_000))
        in
        let reference = tail ~jobs:1 ~starts:1 in
        check_bool "starts-independent" true (tail ~jobs:1 ~starts:6 = reference);
        check_bool "jobs-independent" true (tail ~jobs:4 ~starts:6 = reference));
    case "solve is bit-identical at jobs 1 vs 4" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:80 ~p:0.08 in
        let solve_with jobs =
          with_jobs jobs (fun () ->
              let r =
                Gbisect.solve ~algorithm:`Kl ~starts:6 (Helpers.rng ~seed:9 ()) g
              in
              (Bisection.cut r.Gbisect.bisection, Bisection.sides r.Gbisect.bisection))
        in
        check_bool "same bisection" true (solve_with 1 = solve_with 4));
  ]

(* --- Determinism suite: whole tables at --jobs 1 vs --jobs 4 ---------------- *)

(* Run one registry experiment under a pinned clock, capturing both the
   rendered table and the telemetry records it emits. Records are
   normalised to schedule-independent fields and sorted, so sequential
   and parallel runs are comparable regardless of emission order. *)
let compare_normalised (g1, a1, s1, st1, c1, b1, t1) (g2, a2, s2, st2, c2, b2, t2) =
  let sample (la, va) (lb, vb) =
    match String.compare la lb with 0 -> Float.compare va vb | c -> c
  in
  let cmps =
    [
      (fun () -> String.compare g1 g2);
      (fun () -> String.compare a1 a2);
      (fun () -> Option.compare Int.compare s1 s2);
      (fun () -> Int.compare st1 st2);
      (fun () -> Int.compare c1 c2);
      (fun () -> Bool.compare b1 b2);
      (fun () -> List.compare sample t1 t2);
    ]
  in
  List.fold_left (fun acc cmp -> if acc <> 0 then acc else cmp ()) 0 cmps

let run_table jobs id =
  let records = ref [] in
  let table =
    with_jobs jobs (fun () ->
        with_constant_clock (fun () ->
            Telemetry.set_writer (Some (fun r -> records := r :: !records));
            Fun.protect
              ~finally:(fun () -> Telemetry.set_writer None)
              (fun () ->
                match Registry.find id with
                | None -> Alcotest.failf "unknown experiment %S" id
                | Some e -> e.Registry.run Profile.smoke)))
  in
  let normalised =
    List.map
      (fun r ->
        ( r.Telemetry.graph,
          r.Telemetry.algorithm,
          r.Telemetry.seed,
          r.Telemetry.start,
          r.Telemetry.cut,
          r.Telemetry.balanced,
          r.Telemetry.trajectory ))
      !records
    |> List.sort compare_normalised
  in
  (table, normalised)

let determinism_tests =
  List.map
    (fun id ->
      case (id ^ " is bit-identical at jobs 1 vs 4") (fun () ->
          let table1, records1 = run_table 1 id in
          let table4, records4 = run_table 4 id in
          Alcotest.(check string) "rendered table" table1 table4;
          check_int "telemetry record count" (List.length records1)
            (List.length records4);
          check_bool "telemetry cut trajectories" true (records1 = records4)))
    [ "table1"; "gbreg-5000-d3"; "obs1" ]

let () =
  Alcotest.run "par"
    [
      ("pool", pool_tests);
      ("rng fan-out", rng_tests);
      ("determinism", determinism_tests);
    ]
