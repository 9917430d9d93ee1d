module Bregular = Gb_models.Bregular

let degree_sweep profile =
  let two_n = Profile.scaled profile 2000 in
  let rows =
    List.filter_map
      (fun d ->
        let params = Bregular.{ two_n; b = 16; d } in
        let b = Bregular.nearest_feasible_b params in
        let params = { params with Bregular.b } in
        match Bregular.feasible params with
        | Error _ -> None
        | Ok () ->
            Some
              {
                Paper_table.label = Printf.sprintf "d=%d" d;
                expected = string_of_int b;
                replicate_factor = 2;
                make = (fun rng -> Bregular.generate rng params);
              })
      [ 3; 4; 5; 6 ]
  in
  Paper_table.run profile
    ~title:
      (Printf.sprintf
         "Observation 1 (E-O1): quality and speed vs regular degree, Gbreg(%d, ~16, d)"
         two_n)
    ~notes:
      [
        "claim: cuts approach the planted width and times shrink as d grows;";
        "at d >= 4 the planted bisection is found";
      ]
    ~seed_tag:"obs1" rows

let compaction_sweep profile =
  let sizes = [ 500; 1000; 2000; 5000 ] in
  let rows =
    List.filter_map
      (fun size ->
        let two_n = Profile.scaled profile size in
        let params = Bregular.{ two_n; b = 8; d = 3 } in
        let b = Bregular.nearest_feasible_b params in
        let params = { params with Bregular.b } in
        match Bregular.feasible params with
        | Error _ -> None
        | Ok () ->
            Some
              {
                Paper_table.label = Printf.sprintf "2n=%d" two_n;
                expected = string_of_int b;
                replicate_factor = 2;
                make = (fun rng -> Bregular.generate rng params);
              })
      sizes
  in
  Paper_table.run profile
    ~title:"Observation 2 (E-O2): compaction's benefit vs size, Gbreg(2n, ~8, 3)"
    ~notes:
      [
        "claim: the relative improvement columns grow with 2n (>= 90% at the top";
        "of the paper's range) and kl-spdup stays >= 0 (CKL not slower than KL)";
      ]
    ~seed_tag:"obs2" rows

(* Mixed corpus head-to-head: who wins on quality, and the time ratio. *)
let kl_vs_sa profile =
  let two_n = Profile.scaled profile 2000 in
  let row label make = { Paper_table.label; expected = ""; replicate_factor = 1; make } in
  let gbreg d rng =
    let params = Bregular.{ two_n; b = 16; d } in
    Bregular.generate rng { params with Bregular.b = Bregular.nearest_feasible_b params }
  in
  let corpus =
    [
      row "gbreg d=3" (gbreg 3);
      row "gbreg d=4" (gbreg 4);
      row "g2set deg 3" (fun rng ->
          Gb_models.Planted.generate rng
            (Gb_models.Planted.params_for_average_degree ~two_n ~avg_degree:3.0 ~bis:16));
      row "ladder" (fun _rng -> Gb_graph.Classic.ladder (two_n / 2));
      row "grid" (fun _rng ->
          let side = int_of_float (sqrt (float_of_int two_n)) in
          Gb_graph.Classic.grid_of_side side);
      row "btree" (fun _rng ->
          let rec depth_for d = if (1 lsl (d + 1)) - 1 > two_n then d - 1 else depth_for (d + 1) in
          Gb_graph.Classic.binary_tree ~depth:(depth_for 3));
    ]
  in
  let rows =
    List.map
      (fun { Paper_table.row; quad = q } ->
        let open Runner in
        let ratio = if q.bkl.seconds > 0. then q.bsa.seconds /. q.bkl.seconds else 0. in
        let winner a b = if a < b then "SA" else if b < a then "KL" else "tie" in
        [
          row.Paper_table.label;
          Table.int_cell q.bsa.cut;
          Table.int_cell q.bkl.cut;
          winner q.bsa.cut q.bkl.cut;
          Table.int_cell q.bcsa.cut;
          Table.int_cell q.bckl.cut;
          winner q.bcsa.cut q.bckl.cut;
          Table.float_cell ~decimals:1 ratio;
        ])
      (Paper_table.collect profile ~seed_tag:"obs4" corpus)
  in
  Table.render
    ~title:
      (Printf.sprintf
         "Observations 4 & 5 (E-O4): KL vs SA head to head (mixed corpus, 2n ~ %d)" two_n)
    ~notes:
      [
        "claims: KL much faster (t(SA)/t(KL) >> 1); KL usually at least as good,";
        "with trees and ladders the paper's exception; with compaction the gap closes";
      ]
    ~header:
      [ "family"; "bsa"; "bkl"; "plain"; "bcsa"; "bckl"; "compacted"; "t(SA)/t(KL)" ]
    rows
