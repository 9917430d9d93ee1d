module Rng = Gb_prng.Rng
module Bregular = Gb_models.Bregular
module Telemetry = Gb_obs.Telemetry
module Span = Gb_obs.Span

(* One labelled trajectory out of a telemetry record: the cores sample
   [Span.kl_pass] after every KL pass, [Span.sa_plateau] after every
   temperature plateau, [Span.compaction_level] after every refined
   level. *)
let series label (record : Telemetry.record) =
  let label = Span.name label in
  List.filter_map
    (fun (k, v) -> if String.equal k label then Some v else None)
    record.Telemetry.trajectory

let figures profile =
  let two_n = Profile.scaled profile 2000 in
  let params = Bregular.{ two_n; b = 16; d = 3 } in
  let b = Bregular.nearest_feasible_b params in
  let params = { params with Bregular.b } in
  let seed = Rng.seed_of_string (Printf.sprintf "%d/figures" profile.Profile.master_seed) in
  (* Each cell draws the instance afresh from the figures seed and keeps
     the records of its runs, which carry the trajectories. *)
  let row label algorithms =
    {
      Cell.label;
      replicates = 1;
      seed = (fun _ -> seed);
      compute =
        (fun rng ->
          let g = Bregular.generate rng params in
          List.map
            (fun algorithm ->
              snd (Runner.run_once_record ~collect:true profile rng algorithm g))
            algorithms);
    }
  in
  let records =
    List.concat
      (List.concat
         (Cell.run profile ~tag:"figures" Cell.records
            [ row "kl" [ `Kl; `Ckl ]; row "sa" [ `Sa ]; row "ml" [ `Multilevel ] ]))
  in
  let trajectory algorithm label =
    series label
      (List.find (fun (r : Telemetry.record) -> String.equal r.algorithm algorithm) records)
  in
  (* CKL runs KL twice — on the contracted graph, then on the original
     from the projected start — so its kl.pass trajectory shows the
     coarse passes followed by the (few) fine ones. *)
  Ascii_chart.render
    ~title:
      (Printf.sprintf
         "Figure: KL cut vs pass, Gbreg(%d, %d, 3) — random start (planted cut %d)" two_n b b)
    ~y_label:"cut" ~x_label:"pass" (trajectory "KL" Span.kl_pass)
  ^ Ascii_chart.render
      ~title:"          same instance — compacted (CKL), coarse then fine passes"
      ~y_label:"cut" ~x_label:"pass" (trajectory "CKL" Span.kl_pass)
  ^ "\n"
  ^ Ascii_chart.render
      ~title:(Printf.sprintf "Figure: SA best cost vs temperature index, Gbreg(%d, %d, 3)" two_n b)
      ~y_label:"best cost" ~x_label:"temperature index" (trajectory "SA" Span.sa_plateau)
  ^ "\n"
  ^ Ascii_chart.render
      ~title:
        (Printf.sprintf
           "Figure: multilevel (recursive compaction) cut per level, Gbreg(%d, %d, 3) — \
            coarsest to finest"
           two_n b)
      ~y_label:"cut after refinement" ~x_label:"level"
      (trajectory "MLKL" Span.compaction_level)
