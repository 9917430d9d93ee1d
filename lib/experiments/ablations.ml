module Rng = Gb_prng.Rng
module Bregular = Gb_models.Bregular
module Compaction = Gb_compaction.Compaction
module Bisection = Gb_partition.Bisection

let corpus profile =
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
    [ (3, 4); (3, 16); (3, 64); (4, 16) ]

let timed f =
  let t0 = Gb_obs.Clock.now () in
  let r = f () in
  (r, Gb_obs.Clock.now () -. t0)

(* The compaction/multilevel trial loop is a parallel fan-out point:
   each replicate owns a seed derived from the master seed and its
   (variant, index) labels, so the trials are order-independent and run
   on the ambient pool with bit-identical averages at any job count. *)
let averaged profile name run_variant make =
  let replicates = max 2 profile.Profile.replicates in
  let trials =
    Gb_par.Pool.init
      (Gb_par.Pool.current ())
      replicates
      (fun j ->
        let seed =
          Rng.seed_of_string
            (Printf.sprintf "%d/ablate/%s/%d" profile.Profile.master_seed name j)
        in
        let rng = Rng.create ~seed in
        let g = make rng in
        let (bisection : Bisection.t), t = timed (fun () -> run_variant rng g) in
        (float_of_int (Bisection.cut bisection), t))
  in
  let cuts = Array.to_list (Array.map fst trials) in
  let secs = Array.to_list (Array.map snd trials) in
  (Table.mean cuts, Table.mean secs)

let matching_policy profile =
  let kl = Compaction.kl_refiner () in
  let variant policy rng g = fst (Compaction.bisect ~policy ~refiner:kl rng g) in
  let rows =
    List.map
      (fun (name, b, make) ->
        let random_cut, random_t = averaged profile (name ^ "/rand") (variant Compaction.Random_matching) make in
        let heavy_cut, heavy_t = averaged profile (name ^ "/heavy") (variant Compaction.Heavy_edge_matching) make in
        [
          name;
          Table.int_cell b;
          Table.float_cell ~decimals:1 random_cut;
          Table.seconds_cell random_t;
          Table.float_cell ~decimals:1 heavy_cut;
          Table.seconds_cell heavy_t;
        ])
      (corpus profile)
  in
  Table.render ~title:"Ablation E-X1: CKL matching policy (random maximal vs heavy-edge)"
    ~notes:[ "paper uses random maximal matching; cuts averaged over replicates" ]
    ~header:[ "family"; "b"; "cut(random)"; "t(random)"; "cut(heavy)"; "t(heavy)" ]
    rows

let recursion_depth profile =
  let kl = Compaction.kl_refiner () in
  let one_shot rng g = fst (Compaction.bisect ~refiner:kl rng g) in
  let multilevel rng g = fst (Compaction.recursive ~refiner:kl rng g) in
  let plain rng g = fst (Gb_kl.Kl.run rng g) in
  let rows =
    List.map
      (fun (name, b, make) ->
        let kl_cut, kl_t = averaged profile (name ^ "/kl") plain make in
        let ckl_cut, ckl_t = averaged profile (name ^ "/ckl") one_shot make in
        let ml_cut, ml_t = averaged profile (name ^ "/ml") multilevel make in
        [
          name;
          Table.int_cell b;
          Table.float_cell ~decimals:1 kl_cut;
          Table.seconds_cell kl_t;
          Table.float_cell ~decimals:1 ckl_cut;
          Table.seconds_cell ckl_t;
          Table.float_cell ~decimals:1 ml_cut;
          Table.seconds_cell ml_t;
        ])
      (corpus profile)
  in
  Table.render
    ~title:"Ablation E-X2: plain KL vs one-shot compaction vs recursive (multilevel)"
    ~notes:[ "recursive compaction is the extension that became multilevel partitioning" ]
    ~header:
      [ "family"; "b"; "cut(KL)"; "t(KL)"; "cut(CKL)"; "t(CKL)"; "cut(MLKL)"; "t(MLKL)" ]
    rows
