module Csr = Gb_graph.Csr

type t = {
  cut : int;
  counts : int * int;
  weights : int * int;
  imbalance : float;
  boundary_vertices : int;
  internal_edges : int * int;
  conductance : float;
  components_within : int * int;
}

let components_inside g (side : int array) s =
  let n = Csr.n_vertices g in
  let label = Array.make n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for start = 0 to n - 1 do
    if side.(start) = s && label.(start) < 0 then begin
      incr count;
      label.(start) <- 1;
      Queue.add start queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        Csr.iter_neighbors g u (fun v _ ->
            if side.(v) = s && label.(v) < 0 then begin
              label.(v) <- 1;
              Queue.add v queue
            end)
      done
    end
  done;
  !count

let compute g side =
  Bisection.validate_sides g side;
  let cut = ref 0 and int0 = ref 0 and int1 = ref 0 in
  Csr.iter_edges g (fun u v w ->
      if side.(u) <> side.(v) then cut := !cut + w
      else if side.(u) = 0 then int0 := !int0 + w
      else int1 := !int1 + w);
  let n = Csr.n_vertices g in
  let boundary = ref 0 in
  for v = 0 to n - 1 do
    let on_boundary =
      Csr.fold_neighbors g v ~init:false ~f:(fun acc u _ -> acc || side.(u) <> side.(v))
    in
    if on_boundary then incr boundary
  done;
  let counts = Bisection.side_counts side in
  let w0, w1 = Bisection.side_weights g side in
  let total_w = w0 + w1 in
  let imbalance =
    if total_w = 0 then 0.
    else (float_of_int (max w0 w1) /. (float_of_int total_w /. 2.)) -. 1.
  in
  let vol0 = ref 0 and vol1 = ref 0 in
  for v = 0 to n - 1 do
    let d = Csr.weighted_degree g v in
    if side.(v) = 0 then vol0 := !vol0 + d else vol1 := !vol1 + d
  done;
  let conductance =
    let m = min !vol0 !vol1 in
    if m = 0 then 0. else float_of_int !cut /. float_of_int m
  in
  {
    cut = !cut;
    counts;
    weights = (w0, w1);
    imbalance;
    boundary_vertices = !boundary;
    internal_edges = (!int0, !int1);
    conductance;
    components_within = (components_inside g side 0, components_inside g side 1);
  }

let pp fmt m =
  let c0, c1 = m.counts and w0, w1 = m.weights in
  let i0, i1 = m.internal_edges and k0, k1 = m.components_within in
  Format.fprintf fmt
    (* lint: allow no-float-format — display-only pretty-printer *)
    "cut %d@ sides %d/%d (weights %d/%d, imbalance %.1f%%)@ boundary %d vertices@ \
     internal edge weight %d/%d@ conductance %.4f@ induced components %d/%d"
    m.cut c0 c1 w0 w1 (100. *. m.imbalance) m.boundary_vertices i0 i1 m.conductance k0 k1

let compare_cuts a b =
  match Int.compare a.cut b.cut with
  | 0 -> (
      match Float.compare a.imbalance b.imbalance with
      | 0 -> Int.compare a.boundary_vertices b.boundary_vertices
      | c -> c)
  | c -> c
