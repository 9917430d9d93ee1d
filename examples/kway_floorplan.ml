(* k-way min-cut placement by recursive bisection — the full classical
   flow the paper's VLSI motivation points at: split the chip in half,
   assign, recurse. After log2(k) levels each functional block lands in
   one of k regions; wires between regions are the routing cost.

   We partition a 32x32 grid (a circuit whose optimal cuts we know: a
   grid splits along straight lines) and a sparse planted netlist, then
   compare solvers and show the per-level cut decomposition.

   Run with:  dune exec examples/kway_floorplan.exe *)

(* Any registered algorithm is a k-way solver: keep its side array. *)
let solver algorithm rng g =
  Gbisect.Bisection.sides ((Gbisect.Algo.find algorithm).run rng g).bisection

let describe name graph ~k rng =
  Format.printf "%s into %d regions:@." name k;
  List.iter
    (fun algorithm ->
      let result = Gbisect.Kway.partition ~k ~solver:(solver algorithm) rng graph in
      Gbisect.Kway.validate graph result;
      let sizes = Gbisect.Kway.part_sizes result in
      Format.printf "  %-5s total cut %4d  (levels: %s; region sizes %d..%d)@."
        (Gbisect.Algo.name algorithm) result.Gbisect.Kway.total_cut
        (String.concat "+" (List.map string_of_int result.Gbisect.Kway.level_cuts))
        (Array.fold_left min max_int sizes)
        (Array.fold_left max 0 sizes))
    [ `Kl; `Ckl; `Fm; `Multilevel ]

let () =
  let rng = Gbisect.Rng.create ~seed:26 in

  (* A 32x32 grid: the ideal 4-way partition is the four 16x16
     quadrants, total cut = 2 * 32 = 64. *)
  describe "grid 32x32" (Gbisect.Classic.grid_of_side 32) ~k:4 rng;

  (* A sparse planted netlist where one-shot compaction matters. *)
  let params = Gbisect.Bregular.{ two_n = 1024; b = 8; d = 3 } in
  let netlist = Gbisect.Bregular.generate rng params in
  describe "gbreg(1024, 8, 3)" netlist ~k:8 rng;

  (* The placement picture: region ids are bit paths of the cuts, so
     regions 0..3 of the grid should map to spatial quadrants. Count
     how pure each quadrant of the actual grid is under the KL flow. *)
  let graph = Gbisect.Classic.grid_of_side 32 in
  let result = Gbisect.Kway.partition ~k:4 ~solver:(solver `Kl) rng graph in
  let majority = Hashtbl.create 4 in
  for r = 0 to 31 do
    for c = 0 to 31 do
      let quadrant = (2 * (r / 16)) + (c / 16) in
      let part = result.Gbisect.Kway.parts.((r * 32) + c) in
      let key = (quadrant, part) in
      Hashtbl.replace majority key (1 + Option.value ~default:0 (Hashtbl.find_opt majority key))
    done
  done;
  let pure = ref 0 in
  for q = 0 to 3 do
    let best = ref 0 in
    Hashtbl.iter (fun (q', _) c -> if q' = q && c > !best then best := c) majority;
    pure := !pure + !best
  done;
  Format.printf
    "spatial coherence: %d/1024 grid cells lie in their quadrant's majority region@."
    !pure
