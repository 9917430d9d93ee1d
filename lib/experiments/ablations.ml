module Bregular = Gb_models.Bregular
module Compaction = Gb_compaction.Compaction
module Bisection = Gb_partition.Bisection

let gbreg_corpus profile settings =
  let two_n = Profile.scaled profile 2000 in
  List.filter_map
    (fun (d, b) ->
      let params = Bregular.{ two_n; b; d } in
      let params = { params with Bregular.b = Bregular.nearest_feasible_b params } in
      match Bregular.feasible params with
      | Error _ -> None
      | Ok () ->
          Some
            ( Printf.sprintf "gbreg(%d,%d,%d)" two_n params.Bregular.b d,
              params.Bregular.b,
              fun rng -> Bregular.generate rng params ))
    settings

(* One cell row per (family, variant), each variant seeded by its own
   label; a table row shows every variant's mean cut and time. *)
let variant_rows profile variants =
  let corpus = gbreg_corpus profile [ (3, 4); (3, 16); (3, 64); (4, 16) ] in
  let cells =
    Cell.run profile ~tag:"ablate" Cell.floats
      (List.concat_map
         (fun (name, _, make) ->
           List.map
             (fun (variant, run) ->
               let label = name ^ "/" ^ variant in
               {
                 Cell.label;
                 replicates = max 2 profile.Profile.replicates;
                 seed = Cell.seed profile "ablate" label;
                 compute =
                   (fun rng ->
                     let g = make rng in
                     let bisection, t = Runner.timed (fun () -> run rng g) in
                     [| float_of_int (Bisection.cut bisection); t |]);
               })
             variants)
         corpus)
  in
  let means =
    List.map
      (fun replicates ->
        let m = Cell.column_means replicates in
        [ Table.float_cell ~decimals:1 m.(0); Table.seconds_cell m.(1) ])
      cells
  in
  let k = List.length variants in
  List.mapi
    (fun i (name, b, _) ->
      name :: Table.int_cell b :: List.concat (List.filteri (fun c _ -> c / k = i) means))
    corpus

let matching_policy profile =
  let kl = Compaction.kl_refiner () in
  let variant policy rng g = fst (Compaction.bisect ~policy ~refiner:kl rng g) in
  Table.render ~title:"Ablation E-X1: CKL matching policy (random maximal vs heavy-edge)"
    ~notes:[ "paper uses random maximal matching; cuts averaged over replicates" ]
    ~header:[ "family"; "b"; "cut(random)"; "t(random)"; "cut(heavy)"; "t(heavy)" ]
    (variant_rows profile
       [
         ("rand", variant Compaction.Random_matching);
         ("heavy", variant Compaction.Heavy_edge_matching);
       ])

let recursion_depth profile =
  let kl = Compaction.kl_refiner () in
  Table.render
    ~title:"Ablation E-X2: plain KL vs one-shot compaction vs recursive (multilevel)"
    ~notes:[ "recursive compaction is the extension that became multilevel partitioning" ]
    ~header:
      [ "family"; "b"; "cut(KL)"; "t(KL)"; "cut(CKL)"; "t(CKL)"; "cut(MLKL)"; "t(MLKL)" ]
    (variant_rows profile
       [
         ("kl", fun rng g -> fst (Gb_kl.Kl.run rng g));
         ("ckl", fun rng g -> fst (Compaction.bisect ~refiner:kl rng g));
         ("ml", fun rng g -> fst (Compaction.recursive ~refiner:kl rng g));
       ])
