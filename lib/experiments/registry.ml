type experiment = {
  id : string;
  paper_ref : string;
  description : string;
  run : Profile.t -> string;
}

let traced e =
  {
    e with
    run =
      (fun profile ->
        Gb_obs.Trace.with_span Gb_obs.Span.experiment
          ~args:
            [
              ("id", Gb_obs.Json.String e.id);
              ("profile", Gb_obs.Json.String profile.Profile.name);
            ]
          (fun () -> e.run profile));
  }

let all =
  List.map traced
  @@ [
    {
      id = "table1";
      paper_ref = "Table 1 (E-T1)";
      description = "compaction's average cut improvement on grid/ladder/binary-tree";
      run = Specials.table1;
    };
    {
      id = "ladder";
      paper_ref = "Appendix, ladder graphs (E-A1)";
      description = "four algorithms on ladders of growing size";
      run = Specials.ladder_table;
    };
    {
      id = "grid";
      paper_ref = "Appendix, grid graphs (E-A2)";
      description = "four algorithms on N x N grids";
      run = Specials.grid_table;
    };
    {
      id = "tree";
      paper_ref = "Appendix, binary trees (E-A3)";
      description = "four algorithms on complete binary trees";
      run = Specials.tree_table;
    };
    {
      id = "g2set-5000-d2.5";
      paper_ref = "Appendix, G2set(5000,...) avg degree 2.5 (E-A4)";
      description = "planted model, 5000 vertices, average degree 2.5, b sweep";
      run = (fun p -> Random_tables.g2set_table p ~two_n:5000 ~avg_degree:2.5);
    };
    {
      id = "g2set-5000-d3";
      paper_ref = "Appendix, G2set(5000,...) avg degree 3 (E-A5)";
      description = "planted model, 5000 vertices, average degree 3, b sweep";
      run = (fun p -> Random_tables.g2set_table p ~two_n:5000 ~avg_degree:3.0);
    };
    {
      id = "g2set-5000-d3.5";
      paper_ref = "Appendix, G2set(5000,...) avg degree 3.5 (E-A6)";
      description = "planted model, 5000 vertices, average degree 3.5, b sweep";
      run = (fun p -> Random_tables.g2set_table p ~two_n:5000 ~avg_degree:3.5);
    };
    {
      id = "g2set-5000-d4";
      paper_ref = "Appendix, G2set(5000,...) avg degree 4 (E-A7)";
      description = "planted model, 5000 vertices, average degree 4, b sweep";
      run = (fun p -> Random_tables.g2set_table p ~two_n:5000 ~avg_degree:4.0);
    };
    {
      id = "gnp-5000";
      paper_ref = "Appendix, Gnp(5000, p) (E-A8)";
      description = "Erdos-Renyi control, 5000 vertices, degree sweep";
      run = (fun p -> Random_tables.gnp_table p ~two_n:5000);
    };
    {
      id = "gbreg-5000-d3";
      paper_ref = "Appendix, Gbreg(5000, b, 3) (E-A9)";
      description = "regular planted model, 5000 vertices, degree 3, b sweep";
      run = (fun p -> Random_tables.gbreg_table p ~two_n:5000 ~d:3);
    };
    {
      id = "gbreg-5000-d4";
      paper_ref = "Appendix, Gbreg(5000, b, 4) (E-A10)";
      description = "regular planted model, 5000 vertices, degree 4, b sweep";
      run = (fun p -> Random_tables.gbreg_table p ~two_n:5000 ~d:4);
    };
    {
      id = "g2set-2000-d2.5";
      paper_ref = "Appendix, G2set(2000,...) avg degree 2.5 (E-A11)";
      description = "planted model, 2000 vertices, average degree 2.5, b sweep";
      run = (fun p -> Random_tables.g2set_table p ~two_n:2000 ~avg_degree:2.5);
    };
    {
      id = "g2set-2000-d3";
      paper_ref = "Appendix, G2set(2000,...) avg degree 3 (E-A12)";
      description = "planted model, 2000 vertices, average degree 3, b sweep";
      run = (fun p -> Random_tables.g2set_table p ~two_n:2000 ~avg_degree:3.0);
    };
    {
      id = "g2set-2000-d3.5";
      paper_ref = "Appendix, G2set(2000,...) avg degree 3.5 (E-A13)";
      description = "planted model, 2000 vertices, average degree 3.5, b sweep";
      run = (fun p -> Random_tables.g2set_table p ~two_n:2000 ~avg_degree:3.5);
    };
    {
      id = "g2set-2000-d4";
      paper_ref = "Appendix, G2set(2000,...) avg degree 4 (E-A14)";
      description = "planted model, 2000 vertices, average degree 4, b sweep";
      run = (fun p -> Random_tables.g2set_table p ~two_n:2000 ~avg_degree:4.0);
    };
    {
      id = "gnp-2000";
      paper_ref = "Appendix, Gnp(2000, p) (E-A15)";
      description = "Erdos-Renyi control, 2000 vertices, degree sweep";
      run = (fun p -> Random_tables.gnp_table p ~two_n:2000);
    };
    {
      id = "gbreg-2000-d3";
      paper_ref = "Appendix, Gbreg(2000, b, 3) (E-A16)";
      description = "regular planted model, 2000 vertices, degree 3, b sweep";
      run = (fun p -> Random_tables.gbreg_table p ~two_n:2000 ~d:3);
    };
    {
      id = "gbreg-2000-d4";
      paper_ref = "Appendix, Gbreg(2000, b, 4) (E-A17)";
      description = "regular planted model, 2000 vertices, degree 4, b sweep";
      run = (fun p -> Random_tables.gbreg_table p ~two_n:2000 ~d:4);
    };
    {
      id = "obs1";
      paper_ref = "Observation 1 (E-O1)";
      description = "quality and speed improve with average degree";
      run = Observations.degree_sweep;
    };
    {
      id = "obs2";
      paper_ref = "Observation 2 (E-O2)";
      description = "compaction's benefit grows with size on sparse graphs";
      run = Observations.compaction_sweep;
    };
    {
      id = "obs4";
      paper_ref = "Observations 4 and 5 (E-O4)";
      description = "KL vs SA head-to-head; the tree/ladder exception";
      run = Observations.kl_vs_sa;
    };
    {
      id = "obs4-signtest";
      paper_ref = "Observation 4, the 60% claim (E-O4b)";
      description = "paired sign test: KL vs SA win rates at degree 2.5-3.5";
      run = Sign_test.obs4_sign_table;
    };
    {
      id = "ablate-matching";
      paper_ref = "DESIGN.md E-X1 (ours)";
      description = "random maximal vs heavy-edge matching inside CKL";
      run = Ablations.matching_policy;
    };
    {
      id = "baseline-spectral";
      paper_ref = "DESIGN.md E-X3 (ours)";
      description = "Fiedler-vector bisection vs KL/CKL on the Gbreg corpus";
      run = Baselines.spectral_table;
    };
    {
      id = "netlist";
      paper_ref = "DESIGN.md E-X4 (ours)";
      description = "true net cut: hypergraph FM vs clique/star expansion + KL";
      run = Extra_tables.netlist_table;
    };
    {
      id = "geometric";
      paper_ref = "DESIGN.md E-X5 (ours)";
      description = "random geometric graphs (JAMS family): KL/CKL/SA/MLKL vs strip cut";
      run = Extra_tables.geometric_table;
    };
    {
      id = "figures";
      paper_ref = "convergence dynamics (ours)";
      description = "ASCII figures: KL cut/pass, SA cost/temperature, multilevel levels";
      run = Convergence.figures;
    };
    {
      id = "ablate-levels";
      paper_ref = "DESIGN.md E-X2 (ours)";
      description = "one-shot vs recursive (multilevel) compaction";
      run = Ablations.recursion_depth;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all
(* Experiments run one after the other: the cells inside each table
   are what fans out (Cell.run), and a cell shared by two tables (table1
   and the grid, ladder and tree appendix tables) is computed by the
   first and replayed by the second whatever --jobs is. *)
let run_selected profile experiments =
  List.map
    (fun e ->
      let table, seconds = Runner.timed (fun () -> e.run profile) in
      (* Individual cells are already durable (atomic renames); a
         per-experiment sync just keeps the advisory index fresh so a
         later kill between experiments leaves a tidy store. *)
      Option.iter Gb_store.Store.sync (Gb_store.Store.current ());
      (e, table, seconds))
    experiments
