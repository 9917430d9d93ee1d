module Rng = Gb_prng.Rng
module Bregular = Gb_models.Bregular
module Telemetry = Gb_obs.Telemetry

let instance profile =
  let two_n = Profile.scaled profile 2000 in
  let params = Bregular.{ two_n; b = 16; d = 3 } in
  let params = { params with Bregular.b = Bregular.nearest_feasible_b params } in
  let rng =
    Rng.create ~seed:(Rng.seed_of_string (Printf.sprintf "%d/figures" profile.Profile.master_seed))
  in
  (Bregular.generate rng params, params.Bregular.b, rng)

(* One labelled trajectory out of a telemetry record: the cores sample
   "kl.pass" after every KL pass, "sa.plateau" after every temperature
   plateau, "compaction.level" after every refined level. *)
let series label (record : Telemetry.record) =
  List.filter_map
    (fun (k, v) -> if String.equal k label then Some v else None)
    record.Telemetry.trajectory

let record_of profile rng algorithm g =
  let _, record = Runner.run_once_record ~collect:true profile rng algorithm g in
  record

let kl_passes profile =
  let g, b, rng = instance profile in
  let flat = series "kl.pass" (record_of profile rng `Kl g) in
  (* CKL runs KL twice — on the contracted graph, then on the original
     from the projected start — so its "kl.pass" trajectory shows the
     coarse passes followed by the (few) fine ones. *)
  let compacted = series "kl.pass" (record_of profile rng `Ckl g) in
  Ascii_chart.render
    ~title:
      (Printf.sprintf
         "Figure: KL cut vs pass, Gbreg(%d, %d, 3) — random start (planted cut %d)"
         (Gb_graph.Csr.n_vertices g) b b)
    ~y_label:"cut" ~x_label:"pass" flat
  ^ Ascii_chart.render
      ~title:"          same instance — compacted (CKL), coarse then fine passes"
      ~y_label:"cut" ~x_label:"pass" compacted

let sa_temperatures profile =
  let g, b, rng = instance profile in
  let costs = series "sa.plateau" (record_of profile rng `Sa g) in
  Ascii_chart.render
    ~title:
      (Printf.sprintf
         "Figure: SA best cost vs temperature index, Gbreg(%d, %d, 3)"
         (Gb_graph.Csr.n_vertices g) b)
    ~y_label:"best cost" ~x_label:"temperature index" costs

let multilevel_levels profile =
  let g, b, rng = instance profile in
  let cuts = series "compaction.level" (record_of profile rng `Multilevel g) in
  Ascii_chart.render
    ~title:
      (Printf.sprintf
         "Figure: multilevel (recursive compaction) cut per level, Gbreg(%d, %d, 3) — \
          coarsest to finest"
         (Gb_graph.Csr.n_vertices g) b)
    ~y_label:"cut after refinement" ~x_label:"level" cuts

let figures profile =
  kl_passes profile ^ "\n" ^ sa_temperatures profile ^ "\n" ^ multilevel_levels profile
