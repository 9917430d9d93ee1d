module Bisection = Gb_partition.Bisection
module Spectral = Gb_partition.Spectral

let kl_refine g side = fst (Gb_kl.Kl.refine g side)

let spectral_table profile =
  let corpus = Ablations.gbreg_corpus profile [ (3, 8); (3, 32); (4, 8); (4, 32) ] in
  let cells =
    Cell.run profile ~tag:"spectral" Cell.floats
      (List.map
         (fun (name, _, make) ->
           {
             Cell.label = name;
             replicates = max 2 profile.Profile.replicates;
             seed = Cell.seed profile "spectral" name;
             compute =
               (fun rng ->
                 let g = make rng in
                 (* Cuts of the four methods, then their times. *)
                 let runs =
                   List.map Runner.timed
                     [
                       (fun () -> Spectral.bisect g);
                       (fun () -> Spectral.bisect_refined ~refine:kl_refine g);
                       (fun () -> fst (Gb_kl.Kl.run rng g));
                       (fun () -> fst (Gb_compaction.Compaction.ckl rng g));
                     ]
                 in
                 Array.of_list
                   (List.map (fun (b, _) -> float_of_int (Bisection.cut b)) runs
                   @ List.map snd runs));
           })
         corpus)
  in
  let rows =
    List.map2
      (fun (name, b, _) replicates ->
        let m = Cell.column_means replicates in
        [
          name;
          Table.int_cell b;
          Table.float_cell ~decimals:1 m.(0);
          Table.float_cell ~decimals:1 m.(1);
          Table.float_cell ~decimals:1 m.(2);
          Table.float_cell ~decimals:1 m.(3);
          Table.seconds_cell m.(4);
          Table.seconds_cell m.(7);
        ])
      corpus cells
  in
  Table.render
    ~title:"Baseline E-X3: spectral bisection vs KL and CKL (Gbreg corpus)"
    ~notes:
      [
        "spectral = median split of the Fiedler vector (power iteration);";
        "spectral+KL refines that split with Kernighan-Lin passes";
      ]
    ~header:
      [ "family"; "b"; "spectral"; "spectral+KL"; "KL"; "CKL"; "t(spec)"; "t(CKL)" ]
    rows
