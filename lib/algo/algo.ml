module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Kl = Gb_kl.Kl
module Fm = Gb_kl.Fm
module Schedule = Gb_anneal.Schedule
module Sa_bisect = Gb_anneal.Sa_bisect
module Compaction = Gb_compaction.Compaction
module Xsa = Gb_race.Xsa
module Json = Gb_obs.Json
module Pool = Gb_par.Pool

type t = [ `Kl | `Sa | `Ckl | `Csa | `Fm | `Multilevel | `Mlfm | `Xsa ]

type ml = { min_vertices : int; max_levels : int; refine_passes : int }

let default_ml = { min_vertices = 64; max_levels = 20; refine_passes = 4 }

type outcome = {
  bisection : Bisection.t;
  stats : (string * Json.t) list;
  final_cut : int option;
}

type entry = {
  algorithm : t;
  id : string;
  name : string;
  run : ?schedule:Schedule.t -> ?xsa:Xsa.config -> ?ml:ml -> Rng.t -> Csr.t -> outcome;
}

(* Each algorithm's final stats, in the field order telemetry records
   have always used. *)

let ints = List.map (fun (k, v) -> (k, Json.Int v))

let kl (bisection, (s : Kl.stats)) =
  let stats = ints [ ("passes", s.passes); ("swaps", s.swaps); ("initial_cut", s.initial_cut) ] in
  { bisection; stats; final_cut = Some s.final_cut }

let fm (bisection, (s : Fm.stats)) =
  let stats = ints [ ("passes", s.passes); ("moves", s.moves); ("initial_cut", s.initial_cut) ] in
  { bisection; stats; final_cut = Some s.final_cut }

let sa (bisection, (s : Sa_bisect.stats)) =
  let e = s.sa in
  let stats =
    ints
      [
        ("temperatures", e.temperatures);
        ("attempted", e.attempted);
        ("accepted", e.accepted);
        ("uphill_accepted", e.uphill_accepted);
      ]
    @ [
        ("initial_temperature", Json.Float e.initial_temperature);
        ("final_temperature", Json.Float e.final_temperature);
        ("frozen", Json.Bool e.frozen);
        ("best_was_snapshot", Json.Bool s.best_was_snapshot);
        ("initial_cut", Json.Int s.initial_cut);
      ]
  in
  { bisection; stats; final_cut = Some s.final_cut }

let compaction (bisection, (s : Compaction.stats)) =
  let stats =
    ints
      [
        ("levels", s.levels);
        ("coarse_vertices", s.coarse_vertices);
        ("coarse_cut", s.coarse_cut);
        ("projected_cut", s.projected_cut);
      ]
  in
  { bisection; stats; final_cut = Some s.final_cut }

let xsa (bisection, (s : Xsa.stats)) =
  let stats =
    ints
      [
        ("chains", s.chains);
        ("rounds", s.rounds);
        ("swaps_accepted", s.swaps_accepted);
        ("best_chain", s.best_chain);
      ]
  in
  { bisection; stats; final_cut = None }

(* Both V-cycles refine every level with at most [refine_passes] passes:
   the projected partition is already near-converged, and refining to
   quiescence makes the solve superlinear in the instance size. *)
let multilevel refiner ml rng g =
  let ml = Option.value ml ~default:default_ml in
  compaction
    (Compaction.recursive ~min_vertices:ml.min_vertices ~max_levels:ml.max_levels
       ~refiner:(refiner ml.refine_passes) rng g)

let kl_refiner max_passes = Compaction.kl_refiner ~max_passes ()
let fm_refiner max_passes = Compaction.fm_refiner ~max_passes ()
let entry algorithm id name run = { algorithm; id; name; run }

let all =
  [
    entry `Kl "kl" "KL" (fun ?schedule:_ ?xsa:_ ?ml:_ rng g -> kl (Kl.run rng g));
    entry `Sa "sa" "SA" (fun ?schedule ?xsa:_ ?ml:_ rng g -> sa (Sa_bisect.run ?schedule rng g));
    entry `Ckl "ckl" "CKL" (fun ?schedule:_ ?xsa:_ ?ml:_ rng g ->
        compaction (Compaction.ckl rng g));
    entry `Csa "csa" "CSA" (fun ?schedule ?xsa:_ ?ml:_ rng g ->
        compaction (Compaction.csa ?schedule rng g));
    entry `Fm "fm" "FM" (fun ?schedule:_ ?xsa:_ ?ml:_ rng g -> fm (Fm.run rng g));
    entry `Multilevel "mlkl" "MLKL" (fun ?schedule:_ ?xsa:_ ?ml rng g ->
        multilevel kl_refiner ml rng g);
    entry `Mlfm "mlfm" "MLFM" (fun ?schedule:_ ?xsa:_ ?ml rng g ->
        multilevel fm_refiner ml rng g);
    entry `Xsa "xsa" "XSA" (fun ?schedule:_ ?xsa:config ?ml:_ rng g ->
        xsa (Xsa.run ?config rng g));
  ]

let find (a : t) = List.find (fun e -> e.algorithm = a) all
let id a = (find a).id
let name a = (find a).name
let ids = List.map (fun e -> e.id) all

let of_id s =
  let s = match String.lowercase_ascii s with "multilevel" -> "mlkl" | s -> s in
  Option.map (fun e -> e.algorithm) (List.find_opt (fun e -> e.id = s) all)

let solve ?ml ~starts algorithm rng g =
  let run = (find algorithm).run in
  (* Start i runs on substream i of one derived base, so the winner is
     bit-identical at any --jobs value; equal cuts go to the lowest
     start index, as in a sequential loop. *)
  let base = Rng.derive_seed rng in
  Pool.best_by (Pool.current ())
    ~compare:(fun a b -> Int.compare (Bisection.cut a) (Bisection.cut b))
    (fun i -> (run ?ml (Rng.substream ~base i) g).bisection)
    starts
