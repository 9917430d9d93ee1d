module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Matching = Gb_graph.Matching
module Contraction = Gb_graph.Contraction
module Bisection = Gb_partition.Bisection
module Initial = Gb_partition.Initial
module Obs = Gb_obs

(* Observability instruments (no-ops unless Gb_obs is switched on). *)
let m_matchings = Obs.Metrics.counter "compaction.matchings"
let h_matching_size = Obs.Metrics.histogram "compaction.matching_size"
let h_contraction_pct = Obs.Metrics.histogram "compaction.contraction_ratio_pct"

(* Contract one level under spans, recording the matching size and the
   coarse/fine vertex ratio. *)
let contract_level policy match_with rng g =
  let matching =
    Obs.Trace.with_span Obs.Span.compaction_match (fun () -> match_with policy rng g)
  in
  Obs.Metrics.incr m_matchings;
  Obs.Metrics.observe h_matching_size (float_of_int (Matching.size matching));
  let contraction =
    Obs.Trace.with_span Obs.Span.compaction_contract (fun () -> Contraction.contract g matching)
  in
  let ratio =
    float_of_int (Csr.n_vertices contraction.Contraction.coarse)
    /. float_of_int (max 1 (Csr.n_vertices g))
  in
  Obs.Metrics.observe h_contraction_pct (100. *. ratio);
  contraction

type refiner = Rng.t -> Csr.t -> int array -> int array

type policy = Random_matching | Heavy_edge_matching

type stats = {
  fine_vertices : int;
  coarse_vertices : int;
  coarse_average_degree : float;
  coarse_cut : int;
  projected_cut : int;
  final_cut : int;
  levels : int;
}

let match_with policy rng g =
  match policy with
  | Random_matching -> Matching.random_maximal rng g
  | Heavy_edge_matching -> Matching.heavy_edge rng g

let bisect ?(policy = Random_matching) ~refiner rng g =
  let contraction = contract_level policy match_with rng g in
  let coarse = contraction.Contraction.coarse in
  (* Step 3: bisect the contracted graph from a random start. *)
  let coarse_start = Initial.random rng coarse in
  let coarse_side =
    Obs.Trace.with_span Obs.Span.compaction_coarse_refine
      ~args:[ ("vertices", Obs.Json.Int (Csr.n_vertices coarse)) ]
      (fun () -> refiner rng coarse coarse_start)
  in
  let coarse_cut = Bisection.compute_cut coarse coarse_side in
  Obs.Telemetry.sample Obs.Span.compaction_level (float_of_int coarse_cut);
  (* Step 4: uncompact and repair count balance. *)
  let start =
    Obs.Trace.with_span Obs.Span.compaction_project (fun () ->
        Bisection.rebalance g (Contraction.project_to_fine contraction coarse_side))
  in
  let projected_cut = Bisection.compute_cut g start in
  Obs.Telemetry.sample Obs.Span.compaction_projected (float_of_int projected_cut);
  (* Step 5: refine on the original graph. *)
  let final_side =
    Obs.Trace.with_span Obs.Span.compaction_refine
      ~args:[ ("vertices", Obs.Json.Int (Csr.n_vertices g)) ]
      (fun () -> refiner rng g start)
  in
  let final_cut = Bisection.compute_cut g final_side in
  Obs.Telemetry.sample Obs.Span.compaction_level (float_of_int final_cut);
  ( Bisection.of_sides g final_side,
    {
      fine_vertices = Csr.n_vertices g;
      coarse_vertices = Csr.n_vertices coarse;
      coarse_average_degree = Csr.average_degree coarse;
      coarse_cut;
      projected_cut;
      final_cut;
      levels = 1;
    } )

let recursive ?(min_vertices = 64) ?(max_levels = 20) ?observer ~refiner rng g =
  if min_vertices < 2 then invalid_arg "Compaction.recursive: min_vertices < 2";
  if max_levels < 1 then invalid_arg "Compaction.recursive: max_levels < 1";
  (* Coarsening phase. *)
  let rec coarsen hierarchy g levels =
    if Csr.n_vertices g <= min_vertices || levels >= max_levels then (hierarchy, g)
    else begin
      let contraction = contract_level Random_matching match_with rng g in
      let coarse = contraction.Contraction.coarse in
      (* Stop when contraction no longer shrinks meaningfully. *)
      if 10 * Csr.n_vertices coarse > 9 * Csr.n_vertices g then (hierarchy, g)
      else coarsen (contraction :: hierarchy) coarse (levels + 1)
    end
  in
  let hierarchy, coarsest =
    Obs.Trace.with_span Obs.Span.compaction_coarsen (fun () -> coarsen [] g 0)
  in
  let coarse_vertices = Csr.n_vertices coarsest in
  let coarse_average_degree = Csr.average_degree coarsest in
  (* Bisect the coarsest level from a random balanced start. *)
  let side =
    Obs.Trace.with_span Obs.Span.compaction_coarse_refine
      ~args:[ ("vertices", Obs.Json.Int coarse_vertices) ]
      (fun () -> refiner rng coarsest (Initial.random rng coarsest))
  in
  let coarse_cut = Bisection.compute_cut coarsest side in
  Obs.Telemetry.sample Obs.Span.compaction_level (float_of_int coarse_cut);
  (* Pair each contraction with the fine graph it was applied to:
     [hierarchy] is coarsest-contraction-first, so rebuild finest-first
     from the original graph, then walk it coarsest-first to refine up. *)
  let finest_first =
    let rec build g = function
      | [] -> []
      | c :: rest -> (g, c) :: build c.Contraction.coarse rest
    in
    build g (List.rev hierarchy)
  in
  let projected_cut = ref coarse_cut in
  let finest_level = List.length hierarchy in
  let level_no = ref 0 in
  let side =
    List.fold_left
      (fun side (fine_g, contraction) ->
        Obs.Trace.with_span Obs.Span.compaction_uncoarsen
          ~args:[ ("vertices", Obs.Json.Int (Csr.n_vertices fine_g)) ]
          (fun () ->
            incr level_no;
            let projected = Contraction.project_to_fine contraction side in
            let start = Bisection.rebalance fine_g projected in
            (match observer with
            | Some f ->
                f ~level:!level_no ~fine:fine_g
                  ~coarse:contraction.Contraction.coarse ~coarse_side:side ~projected
                  ~rebalanced:start
            | None -> ());
            (* Only the finest level's projected cut reaches the stats. *)
            if !level_no = finest_level || Obs.Telemetry.collecting () then begin
              projected_cut := Bisection.compute_cut fine_g start;
              Obs.Telemetry.sample Obs.Span.compaction_projected (float_of_int !projected_cut)
            end;
            let refined = refiner rng fine_g start in
            (* compute_cut is pure; only pay for it when collecting. *)
            if Obs.Telemetry.collecting () then
              Obs.Telemetry.sample Obs.Span.compaction_level
                (float_of_int (Bisection.compute_cut fine_g refined));
            refined))
      side (List.rev finest_first)
  in
  let result = Bisection.of_sides g side in
  ( result,
    {
      fine_vertices = Csr.n_vertices g;
      coarse_vertices;
      coarse_average_degree;
      coarse_cut;
      projected_cut = !projected_cut;
      final_cut = Bisection.cut result;
      levels = finest_level + 1;
    } )

let kl_refiner ?max_passes () : refiner =
 fun _rng g side -> fst (Gb_kl.Kl.refine ?max_passes g side)

let sa_refiner ?schedule () : refiner =
 fun rng g side -> fst (Gb_anneal.Sa_bisect.refine ?schedule rng g side)

let fm_refiner ?max_passes () : refiner =
 fun _rng g side -> fst (Gb_kl.Fm.refine ?max_passes g side)

let ckl rng g = bisect ~refiner:(kl_refiner ()) rng g
let csa ?schedule rng g = bisect ~refiner:(sa_refiner ?schedule ()) rng g
