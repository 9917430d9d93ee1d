module Bisection = Gb_partition.Bisection
module Hgraph = Gb_hyper.Hgraph
module Hfm = Gb_hyper.Hfm
module Expansion = Gb_hyper.Expansion
module Random_netlist = Gb_hyper.Random_netlist
module Geometric = Gb_models.Geometric

let netlist_params profile =
  let scale = max 1 (Profile.scaled profile 2048 / 512) in
  [
    ("small nets", { Random_netlist.default_params with blocks = 8 * scale });
    ( "wide buses",
      {
        Random_netlist.default_params with
        blocks = 8 * scale;
        net_size_tail = 0.25;
        global_nets = 96;
        blocks_per_global_net = 4;
      } );
    ( "dense local",
      {
        Random_netlist.default_params with
        blocks = 8 * scale;
        local_nets_per_cell = 2.0;
      } );
  ]

let netlist_table profile =
  let params = netlist_params profile in
  let cells =
    Cell.run profile ~tag:"netlist" Cell.floats
      (List.map
         (fun (name, params) ->
           {
             Cell.label = name;
             replicates = max 2 profile.Profile.replicates;
             seed = Cell.seed profile "netlist" name;
             compute =
               (fun rng ->
                 let h = Random_netlist.generate rng params in
                 let cut side = float_of_int (Hgraph.cut_size h side) in
                 (* hypergraph FM on the true objective *)
                 let (side, _), t_hfm = Runner.timed (fun () -> Hfm.run rng h) in
                 let hfm = cut side in
                 (* clique expansion + KL, then + CKL *)
                 let clique = Expansion.clique h in
                 let (b, _), t_kl = Runner.timed (fun () -> Gb_kl.Kl.run rng clique) in
                 let clique_kl = cut (Bisection.sides b) in
                 let clique_ckl =
                   cut (Bisection.sides (fst (Gb_compaction.Compaction.ckl rng clique)))
                 in
                 (* star expansion + KL, cells rebalanced *)
                 let star, _cells = Expansion.star h in
                 let b, _ = Gb_kl.Kl.run rng star in
                 let cells = Expansion.star_cells_only h (Bisection.sides b) in
                 let star_kl = cut (Bisection.rebalance clique cells) in
                 (* compacted hypergraph FM (CHFM) *)
                 let _, stats = Gb_hyper.Hcoarsen.bisect rng h in
                 let chfm = float_of_int stats.Gb_hyper.Hcoarsen.final_cut in
                 let planted = cut (Random_netlist.block_sides params) in
                 [| planted; hfm; chfm; clique_kl; clique_ckl; star_kl; t_hfm; t_kl |]);
           })
         params)
  in
  let rows =
    List.map2
      (fun (name, _) replicates ->
        let m = Cell.column_means replicates in
        name
        (* the planted split of the first replicate's netlist *)
        :: Table.int_cell (int_of_float (List.hd replicates).(0))
        :: List.map (fun i -> Table.float_cell ~decimals:1 m.(i)) [ 1; 2; 3; 4; 5 ]
        @ [ Table.seconds_cell m.(6); Table.seconds_cell m.(7) ])
      params cells
  in
  Table.render
    ~title:"Extension E-X4: true net cut — hypergraph FM vs graph expansions + KL/CKL"
    ~notes:
      [
        "every column reports the hypergraph net cut of the returned cell split;";
        "'planted' = cut of the generator's block-respecting split";
      ]
    ~header:
      [ "netlist"; "planted"; "HFM"; "CHFM"; "clique+KL"; "clique+CKL"; "star+KL";
        "t(HFM)"; "t(cl+KL)" ]
    rows

(* ---------------------------------------------------------------- *)

let geometric_table profile =
  let two_n = Profile.scaled profile 2000 in
  let rows =
    List.map
      (fun avg_degree ->
        {
          (* lint: allow no-float-format — display-only row label built from a literal degree *)
          Cell.label = Printf.sprintf "avg deg %g" avg_degree;
          replicates = max 2 profile.Profile.replicates;
          (* lint: allow no-float-format — degree is a literal constant; %g renders it identically on every run *)
          seed = Cell.seed profile "geom" (Printf.sprintf "%g" avg_degree);
          compute =
            (fun rng ->
              let radius = Geometric.radius_for_average_degree ~n:two_n ~avg_degree in
              let g, points = Geometric.generate_with_points rng ~n:two_n ~radius in
              let strip = Geometric.strip_cut g points in
              let cut (b, _) = float_of_int (Bisection.cut b) in
              let kl = cut (Gb_kl.Kl.run rng g) in
              let ckl = cut (Gb_compaction.Compaction.ckl rng g) in
              let sa =
                cut (Gb_anneal.Sa_bisect.run ~schedule:profile.Profile.sa_schedule rng g)
              in
              let mlkl =
                cut
                  (Gb_compaction.Compaction.recursive
                     ~refiner:(Gb_compaction.Compaction.kl_refiner ())
                     rng g)
              in
              [| float_of_int strip; kl; ckl; sa; mlkl |]);
        })
      [ 4.0; 6.0; 8.0 ]
  in
  let rows =
    List.map2
      (fun row replicates ->
        row.Cell.label
        :: List.map (Table.float_cell ~decimals:1) (Array.to_list (Cell.column_means replicates)))
      rows
      (Cell.run profile ~tag:"geometric" Cell.floats rows)
  in
  Table.render
    ~title:
      (Printf.sprintf
         "Extension E-X5: random geometric graphs U(%d, r) (JAMS benchmark family)" two_n)
    ~notes:
      [
        "strip = cut of the median-x vertical line (geometric yardstick);";
        "locality makes these hard for flat KL from random starts";
      ]
    ~header:[ "instance"; "strip"; "KL"; "CKL"; "SA"; "MLKL" ]
    rows
