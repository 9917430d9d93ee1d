type t = { graph : Csr.t; to_parent : int array; from_parent : int array }

let induced g keep =
  let n = Csr.n_vertices g in
  let from_parent = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Subgraph.induced: id out of range";
      if from_parent.(v) >= 0 then invalid_arg "Subgraph.induced: duplicate id";
      from_parent.(v) <- i)
    keep;
  let k = Array.length keep in
  let vertex_weights = Array.map (Csr.vertex_weight g) keep in
  let edges = ref [] in
  Array.iteri
    (fun i v ->
      Csr.iter_neighbors g v (fun u w ->
          let j = from_parent.(u) in
          if j > i then edges := (i, j, w) :: !edges))
    keep;
  {
    graph = Csr.of_edges ~vertex_weights ~n:k !edges;
    to_parent = Array.copy keep;
    from_parent;
  }

let lift_sides t side' =
  if Array.length side' <> Array.length t.to_parent then
    invalid_arg "Subgraph.lift_sides: length mismatch";
  Array.to_list (Array.mapi (fun i s -> (t.to_parent.(i), s)) side')
