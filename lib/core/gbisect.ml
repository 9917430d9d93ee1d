module Rng = Gb_prng.Rng
module Lfg = Gb_prng.Lfg
module Graph = Gb_graph.Csr
module Builder = Gb_graph.Builder
module Bitset = Gb_graph.Bitset
module Classic = Gb_graph.Classic
module Traverse = Gb_graph.Traverse
module Graph_io = Gb_graph.Gio
module Matching = Gb_graph.Matching
module Subgraph = Gb_graph.Subgraph
module Contraction = Gb_graph.Contraction
module Product = Gb_graph.Product
module Gnp = Gb_models.Gnp
module Planted = Gb_models.Planted
module Bregular = Gb_models.Bregular
module Degree_seq = Gb_models.Degree_seq
module Geometric = Gb_models.Geometric
module Small_world = Gb_models.Small_world
module Bisection = Gb_partition.Bisection
module Initial = Gb_partition.Initial
module Exact = Gb_partition.Exact
module Spectral = Gb_partition.Spectral
module Cycles = Gb_partition.Cycles
module Metrics = Gb_partition.Metrics
module Tree_exact = Gb_partition.Tree_exact
module Kl = Gb_kl.Kl
module Fm = Gb_kl.Fm
module Gain_buckets = Gb_kl.Gain_buckets
module Sa = Gb_anneal.Sa
module Schedule = Gb_anneal.Schedule
module Sa_bisect = Gb_anneal.Sa_bisect
module Threshold = Gb_anneal.Threshold
module Compaction = Gb_compaction.Compaction
module Kway = Gb_compaction.Kway
module Xsa = Gb_race.Xsa
module Race = Gb_race.Race
module Algo = Gb_algo.Algo
module Hgraph = Gb_hyper.Hgraph
module Hfm = Gb_hyper.Hfm
module Expansion = Gb_hyper.Expansion
module Netlist_io = Gb_hyper.Netlist_io
module Random_netlist = Gb_hyper.Random_netlist
module Hcoarsen = Gb_hyper.Hcoarsen
module Placement = Gb_hyper.Placement
module Obs = Gb_obs
module Pool = Gb_par.Pool
module Store = Gb_store.Store
module Lint = Gb_lint.Lint
module Lint_rules = Gb_lint.Rules
module Lint_program = Gb_lint.Program
module Fuzz = Gb_check.Fuzz
module Fuzz_generators = Gb_check.Generators
module Fuzz_oracles = Gb_check.Oracles
module Fuzz_shrink = Gb_check.Shrink
module Serve_protocol = Gb_serve.Protocol
module Serve = Gb_serve.Server
module Serve_client = Gb_serve.Client
module Bombard = Gb_serve.Bombard
module Profile = Gb_experiments.Profile
module Runner = Gb_experiments.Runner
module Registry = Gb_experiments.Registry
module Experiment_table = Gb_experiments.Table
module Perf_suite = Gb_experiments.Perf_suite
module Scale_suite = Gb_experiments.Scale_suite

type algorithm = Algo.t
type result = { bisection : Bisection.t; algorithm : algorithm; seconds : float }

let solve ?(algorithm = `Ckl) ?(starts = 2) ?ml rng g =
  if starts < 1 then invalid_arg "Gbisect.solve: starts must be >= 1";
  let t0 = Obs.Clock.now () in
  let bisection = Algo.solve ?ml ~starts algorithm rng g in
  { bisection; algorithm; seconds = Obs.Clock.now () -. t0 }

(* The portfolio order is part of the determinism contract: backend i
   runs on substream i of one derived base, and Race breaks cut ties to
   the lowest index — so both the winner and every loser's cut are
   byte-identical at any --jobs value. *)
let default_portfolio : algorithm list = [ `Kl; `Ckl; `Mlfm; `Xsa ]

let race ?(portfolio = default_portfolio) ?(starts = 1) ?ml rng g =
  if portfolio = [] then invalid_arg "Gbisect.race: empty portfolio";
  if starts < 1 then invalid_arg "Gbisect.race: starts must be >= 1";
  let backends =
    List.map
      (fun a ->
        {
          Race.name = Algo.id a;
          solve = (fun rng g -> Algo.solve ?ml ~starts a rng g);
        })
      portfolio
  in
  Race.run ~backends rng g
