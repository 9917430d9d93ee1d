(* VLSI placement scenario — the application the paper's introduction
   motivates ("graph bisection has applications in VLSI placement and
   routing problems").

   We synthesise a gate-level netlist with the locality real circuits
   have: gates cluster into functional blocks (ALUs, register files,
   decoders...) wired densely inside and sparsely between blocks. Each
   block is a small random connected subcircuit; inter-block nets
   follow a power-law-ish fan-out from a few bus drivers. Min-cut
   bisection of the netlist graph is then exactly the first step of a
   classical min-cut placement flow: the cut size is the number of
   wires that must cross the chip's centre line.

   Run with:  dune exec examples/vlsi_netlist.exe *)

let block_count = 40
let gates_per_block = 50

(* A functional block: a random connected subcircuit of [gates] gates,
   built as a random spanning tree (every gate reachable) plus extra
   local nets for reconvergent fan-out. *)
let add_block rng builder ~base ~gates =
  for g = 1 to gates - 1 do
    let driver = base + Gbisect.Rng.int rng g in
    Gbisect.Builder.add_edge builder driver (base + g)
  done;
  let extra_nets = gates / 2 in
  for _ = 1 to extra_nets do
    let a = base + Gbisect.Rng.int rng gates and b = base + Gbisect.Rng.int rng gates in
    if a <> b then ignore (Gbisect.Builder.add_edge_if_absent builder a b)
  done

let synthesize rng =
  let n = block_count * gates_per_block in
  let builder = Gbisect.Builder.create ~expected_edges:(3 * n) n in
  for block = 0 to block_count - 1 do
    add_block rng builder ~base:(block * gates_per_block) ~gates:gates_per_block
  done;
  (* Global interconnect: each block exposes a few port gates; ports are
     wired to randomly chosen ports of other blocks (buses, control). *)
  let ports_per_block = 3 in
  let port block k = (block * gates_per_block) + k in
  for block = 0 to block_count - 1 do
    for k = 0 to ports_per_block - 1 do
      let other = Gbisect.Rng.int rng block_count in
      if other <> block then
        ignore
          (Gbisect.Builder.add_edge_if_absent builder (port block k)
             (port other (Gbisect.Rng.int rng ports_per_block)))
    done
  done;
  Gbisect.Builder.build builder

let () =
  let rng = Gbisect.Rng.create ~seed:1989 in
  let netlist = synthesize rng in
  Format.printf "netlist: %d gates, %d nets, avg fan-in+out %.2f@."
    (Gbisect.Graph.n_vertices netlist)
    (Gbisect.Graph.n_edges netlist)
    (Gbisect.Graph.average_degree netlist);

  (* Lower bound context: a random cut crosses ~half of all nets. *)
  let random_side = Gbisect.Initial.random rng netlist in
  Format.printf "random placement: %d wires cross the cut line@."
    (Gbisect.Bisection.compute_cut netlist random_side);

  List.iter
    (fun algorithm ->
      let result = Gbisect.solve ~algorithm ~starts:2 rng netlist in
      let cut = Gbisect.Bisection.cut result.Gbisect.bisection in
      Format.printf "  %-4s placement: %4d crossing wires (%.3fs)@."
        (Gbisect.Algo.name algorithm)
        cut result.Gbisect.seconds)
    [ `Kl; `Ckl; `Sa; `Csa; `Multilevel ];

  (* The blocks are the "right" clusters; how many does the best
     bisection keep intact? A block is split if its gates straddle. *)
  let result = Gbisect.solve ~algorithm:`Multilevel ~starts:2 rng netlist in
  let side = Gbisect.Bisection.sides result.Gbisect.bisection in
  let intact = ref 0 in
  for block = 0 to block_count - 1 do
    let base = block * gates_per_block in
    let first = side.(base) in
    let split = ref false in
    for g = 1 to gates_per_block - 1 do
      if side.(base + g) <> first then split := true
    done;
    if not !split then incr intact
  done;
  Format.printf "multilevel bisection keeps %d/%d functional blocks intact@.@." !intact
    block_count;

  (* The endpoint of the flow: hypergraph min-cut placement. Model the
     same circuit as a true netlist (multi-pin nets), place it on an
     8x8 slot grid by recursive bisection, and pay the router's price
     — half-perimeter wirelength. *)
  let hyper_params =
    {
      Gbisect.Random_netlist.default_params with
      Gbisect.Random_netlist.blocks = block_count;
      cells_per_block = gates_per_block;
    }
  in
  let hyper = Gbisect.Random_netlist.generate rng hyper_params in
  Format.printf "placement (as a true netlist: %a):@." Gbisect.Hgraph.pp hyper;
  List.iter
    (fun (name, solver) ->
      let placement = Gbisect.Placement.place ~rows:8 ~cols:8 ~solver rng hyper in
      Gbisect.Placement.validate hyper placement;
      Format.printf "  %-24s HPWL %6d@." name (Gbisect.Placement.hpwl hyper placement))
    [
      ("random placement", Gbisect.Placement.random_solver);
      ("min-cut (FM)", Gbisect.Placement.hfm_solver);
      ("min-cut (compacted FM)", Gbisect.Placement.chfm_solver);
    ]
