module Rng = Gb_prng.Rng

type contraction = {
  coarse : Hgraph.t;
  fine_to_coarse : int array;
  coarse_to_fine : int array array;
}

(* Visit cells in random order; match each free cell with the free
   neighbour it shares the smallest net with (2-pin nets first). *)
let match_cells rng h =
  let n = Hgraph.n_vertices h in
  let mate = Array.make n (-1) in
  let order = Rng.permutation rng n in
  Array.iter
    (fun v ->
      if mate.(v) < 0 then begin
        let best = ref (-1) and best_size = ref max_int in
        Hgraph.iter_vertex_nets h v (fun e ->
            let size = Hgraph.net_size h e in
            if size < !best_size then
              Hgraph.iter_net h e (fun u ->
                  if u <> v && mate.(u) < 0 && size < !best_size then begin
                    best := u;
                    best_size := size
                  end));
        if !best >= 0 then begin
          mate.(v) <- !best;
          mate.(!best) <- v
        end
      end)
    order;
  mate

let contract h mate =
  let n = Hgraph.n_vertices h in
  if Array.length mate <> n then invalid_arg "Hcoarsen.contract: mate length";
  Array.iteri
    (fun v u ->
      if u >= 0 && (u >= n || u = v || mate.(u) <> v) then
        invalid_arg "Hcoarsen.contract: mate is not an involution")
    mate;
  let fine_to_coarse = Array.make n (-1) in
  let groups = ref [] in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if fine_to_coarse.(v) < 0 then begin
      let c = !next in
      incr next;
      fine_to_coarse.(v) <- c;
      if mate.(v) >= 0 then begin
        fine_to_coarse.(mate.(v)) <- c;
        groups := [| v; mate.(v) |] :: !groups
      end
      else groups := [| v |] :: !groups
    end
  done;
  let coarse_to_fine = Array.of_list (List.rev !groups) in
  (* Map nets through; drop images with fewer than 2 distinct pins. *)
  let nets = ref [] in
  for e = Hgraph.n_nets h - 1 downto 0 do
    let image =
      Hgraph.net_members h e |> Array.to_list
      |> List.map (fun v -> fine_to_coarse.(v))
      |> List.sort_uniq Int.compare
    in
    match image with _ :: _ :: _ -> nets := image :: !nets | _ -> ()
  done;
  let coarse = Hgraph.of_nets ~n:!next !nets in
  { coarse; fine_to_coarse; coarse_to_fine }

let project c side = Array.map (fun cv -> side.(cv)) c.fine_to_coarse

let rebalance h side =
  let n = Hgraph.n_vertices h in
  if Array.length side <> n then invalid_arg "Hcoarsen.rebalance: side length";
  let side = Array.copy side in
  let pins = Array.init (Hgraph.n_nets h) (fun _ -> [| 0; 0 |]) in
  for e = 0 to Hgraph.n_nets h - 1 do
    Hgraph.iter_net h e (fun v -> pins.(e).(side.(v)) <- pins.(e).(side.(v)) + 1)
  done;
  let c = [| 0; 0 |] in
  Array.iter (fun s -> c.(s) <- c.(s) + 1) side;
  let gain v =
    let s = side.(v) in
    let g = ref 0 in
    Hgraph.iter_vertex_nets h v (fun e ->
        let same = pins.(e).(s) and other = pins.(e).(1 - s) in
        if same = 1 && other > 0 then incr g
        else if other = 0 && same > 1 then decr g);
    !g
  in
  while abs (c.(0) - c.(1)) >= 2 do
    let from_side = if c.(0) > c.(1) then 0 else 1 in
    let best = ref (-1) and best_gain = ref min_int in
    for v = 0 to n - 1 do
      if side.(v) = from_side then begin
        let g = gain v in
        if g > !best_gain then begin
          best := v;
          best_gain := g
        end
      end
    done;
    let v = !best in
    Hgraph.iter_vertex_nets h v (fun e ->
        pins.(e).(from_side) <- pins.(e).(from_side) - 1;
        pins.(e).(1 - from_side) <- pins.(e).(1 - from_side) + 1);
    side.(v) <- 1 - from_side;
    c.(from_side) <- c.(from_side) - 1;
    c.(1 - from_side) <- c.(1 - from_side) + 1
  done;
  side

let random_sides rng n =
  let perm = Rng.permutation rng n in
  let side = Array.make n 1 in
  for i = 0 to (n / 2) - 1 do
    side.(perm.(i)) <- 0
  done;
  side

type stats = {
  fine_cells : int;
  coarse_cells : int;
  coarse_cut : int;
  final_cut : int;
  levels : int;
}

let bisect rng h =
  let mate = match_cells rng h in
  let c = contract h mate in
  let coarse_start = random_sides rng (Hgraph.n_vertices c.coarse) in
  let coarse_side, _ = Hfm.refine c.coarse coarse_start in
  let coarse_cut = Hgraph.cut_size c.coarse coarse_side in
  let start = rebalance h (project c coarse_side) in
  let side, _ = Hfm.refine h start in
  ( side,
    {
      fine_cells = Hgraph.n_vertices h;
      coarse_cells = Hgraph.n_vertices c.coarse;
      coarse_cut;
      final_cut = Hgraph.cut_size h side;
      levels = 1;
    } )
