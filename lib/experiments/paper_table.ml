type row = {
  label : string;
  expected : string;
  replicate_factor : int;
  make : Gb_prng.Rng.t -> Gb_graph.Csr.t;
}

type row_data = { row : row; quad : Runner.quad }

let collect profile ~seed_tag rows =
  let cells =
    Cell.run profile ~tag:seed_tag Runner.quads
      (List.map
         (fun row ->
           {
             Cell.label = row.label;
             replicates = profile.Profile.replicates * row.replicate_factor;
             seed = Cell.seed profile seed_tag row.label;
             compute = (fun rng -> Runner.paper_quad profile rng (row.make rng));
           })
         rows)
  in
  List.map2 (fun row quads -> { row; quad = Runner.averaged_quads quads }) rows cells

let header =
  [
    "instance";
    "b";
    "bsa";
    "bcsa";
    "sa-impr";
    "t(sa)";
    "t(csa)";
    "sa-spdup";
    "bkl";
    "bckl";
    "kl-impr";
    "t(kl)";
    "t(ckl)";
    "kl-spdup";
  ]

let format ~title ?notes data =
  let open Runner in
  let cells { row; quad } =
    let impr base improved =
      Table.pct_cell
        (Table.improvement_pct ~base:(float_of_int base.cut)
           ~improved:(float_of_int improved.cut))
    in
    let speedup base improved =
      Table.pct_cell (Table.improvement_pct ~base:base.seconds ~improved:improved.seconds)
    in
    [
      row.label;
      row.expected;
      Table.int_cell quad.bsa.cut;
      Table.int_cell quad.bcsa.cut;
      impr quad.bsa quad.bcsa;
      Table.seconds_cell quad.bsa.seconds;
      Table.seconds_cell quad.bcsa.seconds;
      speedup quad.bsa quad.bcsa;
      Table.int_cell quad.bkl.cut;
      Table.int_cell quad.bckl.cut;
      impr quad.bkl quad.bckl;
      Table.seconds_cell quad.bkl.seconds;
      Table.seconds_cell quad.bckl.seconds;
      speedup quad.bkl quad.bckl;
    ]
  in
  Table.render ~title ?notes ~header (List.map cells data)

let run profile ~title ?notes ~seed_tag rows =
  format ~title ?notes (collect profile ~seed_tag rows)
