module Rng = Gb_prng.Rng
module Bregular = Gb_models.Bregular
module Bisection = Gb_partition.Bisection
module Spectral = Gb_partition.Spectral

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
    [ (3, 8); (3, 32); (4, 8); (4, 32) ]

let kl_refine g side = fst (Gb_kl.Kl.refine g side)

let timed f =
  let t0 = Gb_obs.Clock.now () in
  let r = f () in
  (r, Gb_obs.Clock.now () -. t0)

let spectral_table profile =
  let rows =
    List.map
      (fun (name, b, make) ->
        let replicates = max 2 profile.Profile.replicates in
        let cuts = Array.make 4 0. and times = Array.make 4 0. in
        for j = 0 to replicates - 1 do
          let seed =
            Rng.seed_of_string
              (Printf.sprintf "%d/spectral/%s/%d" profile.Profile.master_seed name j)
          in
          let rng = Rng.create ~seed in
          let g = make rng in
          let record i f =
            let bisection, t = timed f in
            cuts.(i) <- cuts.(i) +. float_of_int (Bisection.cut bisection);
            times.(i) <- times.(i) +. t
          in
          record 0 (fun () -> Spectral.bisect g);
          record 1 (fun () -> Spectral.bisect_refined ~refine:kl_refine g);
          record 2 (fun () -> fst (Gb_kl.Kl.run rng g));
          record 3 (fun () -> fst (Gb_compaction.Compaction.ckl rng g))
        done;
        let k = float_of_int replicates in
        [
          name;
          Table.int_cell b;
          Table.float_cell ~decimals:1 (cuts.(0) /. k);
          Table.float_cell ~decimals:1 (cuts.(1) /. k);
          Table.float_cell ~decimals:1 (cuts.(2) /. k);
          Table.float_cell ~decimals:1 (cuts.(3) /. k);
          Table.seconds_cell (times.(0) /. k);
          Table.seconds_cell (times.(3) /. k);
        ])
      (corpus profile)
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
