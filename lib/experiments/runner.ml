module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Obs = Gb_obs
module Pool = Gb_par.Pool
module Algo = Gb_algo.Algo

let paper_four : Algo.t list = [ `Sa; `Csa; `Kl; `Ckl ]

type run = { cut : int; seconds : float; balanced : bool }

(* One run with the profile's annealing schedule: the bisection and the
   algorithm's final stats, flattened for the telemetry record. *)
let run_algorithm (profile : Profile.t) rng algorithm g =
  let sa = { Gb_anneal.Sa_bisect.default_config with schedule = profile.sa_schedule } in
  let o = (Algo.find algorithm).run ~sa rng g in
  (o.bisection, o.stats)

let run_once_record ?(start = 0) ?collect profile rng algorithm g =
  (* Collecting a trajectory costs an allocation per pass/plateau, so
     only do it when someone will read it: an installed telemetry
     writer, or a caller that asked explicitly (the figures). *)
  let collect =
    match collect with Some c -> c | None -> Obs.Telemetry.writer_installed ()
  in
  let t0 = Obs.Clock.now () in
  let span = Obs.Trace.start () in
  let (bisection, detail), trajectory =
    if collect then
      Obs.Telemetry.with_collector (fun () -> run_algorithm profile rng algorithm g)
    else (run_algorithm profile rng algorithm g, [])
  in
  let seconds = Obs.Clock.now () -. t0 in
  (* Always-on oracle (O(m), negligible next to any trial): the
     result's cached cut, counts and balance must survive a
     from-scratch recompute. Catches stale incremental accounting at
     the moment it happens rather than in a skewed table later. *)
  (match Gb_check.Oracles.verify_run g bisection with
  | Ok () -> ()
  | Error msg ->
      failwith
        (Printf.sprintf "runner: %s result failed the cut oracle: %s"
           (Algo.name algorithm) msg));
  let cut = Bisection.cut bisection in
  let balanced = Bisection.is_balanced bisection in
  Obs.Trace.finish span "runner.trial"
    ~args:
      [
        ("algorithm", Obs.Json.String (Algo.name algorithm));
        ("start", Obs.Json.Int start);
        ("cut", Obs.Json.Int cut);
        ("vertices", Obs.Json.Int (Csr.n_vertices g));
      ];
  let record =
    {
      Obs.Telemetry.algorithm = Algo.name algorithm;
      graph =
        (match Obs.Telemetry.context_graph () with
        | Some label -> label
        | None -> Printf.sprintf "n%d-m%d" (Csr.n_vertices g) (Csr.n_edges g));
      profile = profile.Profile.name;
      seed = Obs.Telemetry.context_seed ();
      start;
      cut;
      seconds;
      balanced;
      trajectory;
      metrics = detail;
    }
  in
  Obs.Telemetry.emit record;
  ({ cut; seconds; balanced }, record)

let run_once profile rng algorithm g = fst (run_once_record profile rng algorithm g)

(* Fan-out point 1: the paper's independent random starts. Start [i]
   draws from a stream derived from a base seed and [i] alone, and the
   caller's rng advances by exactly the two [derive_seed] draws, so the
   cuts — and the caller's stream afterwards — are identical whether
   the starts run sequentially or on any number of domains. The ambient
   telemetry context is captured here and replayed inside each task
   because pool workers are fresh domains with empty context. *)
let best_of_starts profile rng algorithm g =
  let starts = max 1 profile.Profile.starts in
  let base = Rng.derive_seed rng in
  let context = Obs.Telemetry.capture () in
  let results =
    Pool.init (Pool.current ()) starts (fun i ->
        Obs.Telemetry.with_snapshot context (fun () ->
            let r, _ =
              run_once_record ~start:i profile (Rng.substream ~base i) algorithm g
            in
            r))
  in
  Array.fold_left
    (fun acc r ->
      {
        cut = min acc.cut r.cut;
        seconds = acc.seconds +. r.seconds;
        balanced = acc.balanced && r.balanced;
      })
    results.(0)
    (Array.sub results 1 (starts - 1))

(* JSON codecs for the result store: a cached cell must reproduce the
   whole [run] (the timings included — that is what makes a resumed
   table byte-identical to an uninterrupted one). *)
let run_to_json r =
  let open Obs.Json in
  Obj
    [
      ("cut", Int r.cut); ("seconds", Float r.seconds); ("balanced", Bool r.balanced);
    ]

let run_of_json j =
  let open Obs.Json in
  match (member "cut" j, Option.bind (member "seconds" j) to_float, member "balanced" j)
  with
  | Some (Int cut), Some seconds, Some (Bool balanced) -> Some { cut; seconds; balanced }
  | _ -> None

type quad = { bsa : run; bcsa : run; bkl : run; bckl : run }

let quad_to_json q =
  Obs.Json.Obj
    [
      ("bsa", run_to_json q.bsa);
      ("bcsa", run_to_json q.bcsa);
      ("bkl", run_to_json q.bkl);
      ("bckl", run_to_json q.bckl);
    ]

let quad_of_json j =
  let field k = Option.bind (Obs.Json.member k j) run_of_json in
  match (field "bsa", field "bcsa", field "bkl", field "bckl") with
  | Some bsa, Some bcsa, Some bkl, Some bckl -> Some { bsa; bcsa; bkl; bckl }
  | _ -> None

let paper_quad profile rng g =
  let bsa = best_of_starts profile rng `Sa g in
  let bcsa = best_of_starts profile rng `Csa g in
  let bkl = best_of_starts profile rng `Kl g in
  let bckl = best_of_starts profile rng `Ckl g in
  { bsa; bcsa; bkl; bckl }

let averaged_quads quads =
  match quads with
  | [] -> invalid_arg "Runner.averaged_quads: empty"
  | _ ->
      let avg field_cut field_sec field_bal =
        let n = float_of_int (List.length quads) in
        let cuts = List.map (fun q -> float_of_int (field_cut q)) quads in
        let secs = List.map field_sec quads in
        {
          cut = int_of_float (Float.round (Table.mean cuts));
          seconds = List.fold_left ( +. ) 0. secs /. n;
          balanced = List.for_all field_bal quads;
        }
      in
      {
        bsa = avg (fun q -> q.bsa.cut) (fun q -> q.bsa.seconds) (fun q -> q.bsa.balanced);
        bcsa = avg (fun q -> q.bcsa.cut) (fun q -> q.bcsa.seconds) (fun q -> q.bcsa.balanced);
        bkl = avg (fun q -> q.bkl.cut) (fun q -> q.bkl.seconds) (fun q -> q.bkl.balanced);
        bckl = avg (fun q -> q.bckl.cut) (fun q -> q.bckl.seconds) (fun q -> q.bckl.balanced);
      }
