module Rng = Gb_prng.Rng
module Bisection = Gb_partition.Bisection
module Hgraph = Gb_hyper.Hgraph
module Hfm = Gb_hyper.Hfm
module Expansion = Gb_hyper.Expansion
module Random_netlist = Gb_hyper.Random_netlist
module Geometric = Gb_models.Geometric

module Store = Gb_store.Store
module Json = Gb_obs.Json

let timed f =
  let t0 = Gb_obs.Clock.now () in
  let r = f () in
  (r, Gb_obs.Clock.now () -. t0)

(* ---------------------------------------------------------------- *)
(* Result-store integration. These tables do not go through
   Runner/Paper_table — each replicate measures several algorithms in
   one pass over one instance — so the cell here is the whole
   replicate's measurement vector: the per-algorithm cuts (and, for the
   netlist table, seconds). Keys follow the Paper_table schema. *)

let cell_key profile ~table ~row ~replicate ~seed =
  Store.key
    [
      ("kind", "extra-cell");
      ("profile", Profile.fingerprint profile);
      ("table", table);
      ("row", row);
      ("replicate", string_of_int replicate);
      ("seed", string_of_int seed);
    ]

let floats_to_json a = Json.List (Array.to_list a |> List.map (fun x -> Json.Float x))

let floats_of_json ~len = function
  | Json.List xs when List.length xs = len ->
      let xs = List.map Json.to_float xs in
      if List.exists Option.is_none xs then None
      else Some (Array.of_list (List.map Option.get xs))
  | _ -> None

let series_to_json series =
  Json.Obj (List.map (fun (name, a) -> (name, floats_to_json a)) series)

(* [names] with expected lengths, in order; None on any mismatch. *)
let series_of_json ~names j =
  let fields =
    List.map (fun (name, len) -> Option.bind (Json.member name j) (floats_of_json ~len)) names
  in
  if List.exists Option.is_none fields then None else Some (List.map Option.get fields)

let through_store key ~encode ~decode compute =
  match Store.current () with
  | None -> compute ()
  | Some store -> (
      match Option.bind (Store.find store key) decode with
      | Some v -> v
      | None ->
          let v = compute () in
          Store.add store key (encode v);
          v)

(* ---------------------------------------------------------------- *)

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
  let rows =
    List.map
      (fun (name, params) ->
        let replicates = max 2 profile.Profile.replicates in
        let sums = Array.make 5 0. and times = Array.make 5 0. in
        let replicate_cell j =
          let seed =
            Rng.seed_of_string
              (Printf.sprintf "%d/netlist/%s/%d" profile.Profile.master_seed name j)
          in
          let compute () =
            let cuts = Array.make 5 0. and secs = Array.make 5 0. in
            let rng = Rng.create ~seed in
            let h = Random_netlist.generate rng params in
            let record i cut t =
              cuts.(i) <- float_of_int cut;
              secs.(i) <- t
            in
            (* 0: hypergraph FM on the true objective *)
            let (side, _), t = timed (fun () -> Hfm.run rng h) in
            record 0 (Hgraph.cut_size h side) t;
            (* 1: clique expansion + KL *)
            let clique = Expansion.clique h in
            let (b, _), t = timed (fun () -> Gb_kl.Kl.run rng clique) in
            record 1 (Hgraph.cut_size h (Bisection.sides b)) t;
            (* 2: clique expansion + CKL *)
            let (b, _), t = timed (fun () -> Gb_compaction.Compaction.ckl rng clique) in
            record 2 (Hgraph.cut_size h (Bisection.sides b)) t;
            (* 3: star expansion + KL, cells rebalanced *)
            let star, _cells = Expansion.star h in
            let (b, _), t = timed (fun () -> Gb_kl.Kl.run rng star) in
            let cells = Expansion.star_cells_only h (Bisection.sides b) in
            let cells = Bisection.rebalance clique cells in
            record 3 (Hgraph.cut_size h cells) t;
            (* 4: compacted hypergraph FM (CHFM) *)
            let (_, stats), t = timed (fun () -> Gb_hyper.Hcoarsen.bisect rng h) in
            record 4 stats.Gb_hyper.Hcoarsen.final_cut t;
            (cuts, secs)
          in
          through_store
            (cell_key profile ~table:"netlist" ~row:name ~replicate:j ~seed)
            ~encode:(fun (cuts, secs) ->
              series_to_json [ ("cuts", cuts); ("seconds", secs) ])
            ~decode:(fun j ->
              match series_of_json ~names:[ ("cuts", 5); ("seconds", 5) ] j with
              | Some [ cuts; secs ] -> Some (cuts, secs)
              | _ -> None)
            compute
        in
        for j = 0 to replicates - 1 do
          let cuts, secs = replicate_cell j in
          Array.iteri (fun i c -> sums.(i) <- sums.(i) +. c) cuts;
          Array.iteri (fun i t -> times.(i) <- times.(i) +. t) secs
        done;
        let k = float_of_int replicates in
        let planted =
          (* cut of the planted block split, averaged too *)
          let seed =
            Rng.seed_of_string
              (Printf.sprintf "%d/netlist/%s/0" profile.Profile.master_seed name)
          in
          let rng = Rng.create ~seed in
          let h = Random_netlist.generate rng params in
          Hgraph.cut_size h (Random_netlist.block_sides params)
        in
        [
          name;
          Table.int_cell planted;
          Table.float_cell ~decimals:1 (sums.(0) /. k);
          Table.float_cell ~decimals:1 (sums.(4) /. k);
          Table.float_cell ~decimals:1 (sums.(1) /. k);
          Table.float_cell ~decimals:1 (sums.(2) /. k);
          Table.float_cell ~decimals:1 (sums.(3) /. k);
          Table.seconds_cell (times.(0) /. k);
          Table.seconds_cell (times.(1) /. k);
        ])
      (netlist_params profile)
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
        let replicates = max 2 profile.Profile.replicates in
        let sums = Array.make 5 0. in
        let replicate_cell j =
          let seed =
            Rng.seed_of_string
              (* lint: allow no-float-format — degree is a literal constant; %g renders it identically on every run *)
              (Printf.sprintf "%d/geom/%g/%d" profile.Profile.master_seed avg_degree j)
          in
          let compute () =
            let cuts = Array.make 5 0. in
            let rng = Rng.create ~seed in
            let radius = Geometric.radius_for_average_degree ~n:two_n ~avg_degree in
            let g, points = Geometric.generate_with_points rng ~n:two_n ~radius in
            cuts.(0) <- float_of_int (Geometric.strip_cut g points);
            let record i bisection = cuts.(i) <- float_of_int (Bisection.cut bisection) in
            record 1 (fst (Gb_kl.Kl.run rng g));
            record 2 (fst (Gb_compaction.Compaction.ckl rng g));
            record 3
              (fst
                 (Gb_anneal.Sa_bisect.run
                    ~config:
                      { Gb_anneal.Sa_bisect.default_config with
                        schedule = profile.Profile.sa_schedule
                      }
                    rng g));
            record 4
              (fst
                 (Gb_compaction.Compaction.recursive
                    ~refiner:(Gb_compaction.Compaction.kl_refiner ())
                    rng g));
            cuts
          in
          through_store
            (cell_key profile ~table:"geometric"
               (* lint: allow no-float-format — degree is a literal constant; %g renders it identically on every run *)
               ~row:(Printf.sprintf "avg-deg-%g" avg_degree)
               ~replicate:j ~seed)
            ~encode:(fun cuts -> series_to_json [ ("cuts", cuts) ])
            ~decode:(fun j ->
              match series_of_json ~names:[ ("cuts", 5) ] j with
              | Some [ cuts ] -> Some cuts
              | _ -> None)
            compute
        in
        for j = 0 to replicates - 1 do
          let cuts = replicate_cell j in
          Array.iteri (fun i c -> sums.(i) <- sums.(i) +. c) cuts
        done;
        let k = float_of_int replicates in
        [
          (* lint: allow no-float-format — display-only row label built from a literal degree *)
          Printf.sprintf "avg deg %g" avg_degree;
          Table.float_cell ~decimals:1 (sums.(0) /. k);
          Table.float_cell ~decimals:1 (sums.(1) /. k);
          Table.float_cell ~decimals:1 (sums.(2) /. k);
          Table.float_cell ~decimals:1 (sums.(3) /. k);
          Table.float_cell ~decimals:1 (sums.(4) /. k);
        ])
      [ 4.0; 6.0; 8.0 ]
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
