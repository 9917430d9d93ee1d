let require cond name = if not cond then invalid_arg ("Classic." ^ name)

let path n =
  require (n >= 1) "path";
  Csr.of_unweighted_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  require (n >= 3) "cycle";
  Csr.of_unweighted_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let complete n =
  require (n >= 1) "complete";
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Csr.of_unweighted_edges ~n !edges

let star n =
  require (n >= 1) "star";
  Csr.of_unweighted_edges ~n:(n + 1) (List.init n (fun i -> (0, i + 1)))

let grid ~rows ~cols =
  require (rows >= 1 && cols >= 1) "grid";
  let id r c = (r * cols) + c in
  (* Exact edge count is known up front, so fill unboxed arrays
     directly — grids are a scale-bench family and the boxed list was
     the dominant allocation for million-vertex instances. *)
  let m = (rows * (cols - 1)) + ((rows - 1) * cols) in
  let esrc = Array.make (max 1 m) 0 and edst = Array.make (max 1 m) 0 in
  let k = ref 0 in
  let push u v =
    esrc.(!k) <- u;
    edst.(!k) <- v;
    incr k
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then push (id r c) (id r (c + 1));
      if r + 1 < rows then push (id r c) (id (r + 1) c)
    done
  done;
  Csr.of_edge_arrays ~n:(rows * cols) ~len:m esrc edst

let ladder k =
  require (k >= 1) "ladder";
  grid ~rows:2 ~cols:k

let circular_ladder k =
  require (k >= 3) "circular_ladder";
  let edges = ref [] in
  for i = 0 to k - 1 do
    let j = (i + 1) mod k in
    edges := (i, j) :: (k + i, k + j) :: (i, k + i) :: !edges
  done;
  Csr.of_unweighted_edges ~n:(2 * k) !edges

let kary_tree ~arity ~depth =
  require (arity >= 1 && depth >= 0) "kary_tree";
  (* Vertices in BFS order; children of i are arity*i + 1 .. arity*i + arity. *)
  let rec count d acc pow = if d < 0 then acc else count (d - 1) (acc + pow) (pow * arity) in
  let n = count depth 0 1 in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for c = 1 to arity do
      let child = (arity * i) + c in
      if child < n then edges := (i, child) :: !edges
    done
  done;
  Csr.of_unweighted_edges ~n !edges

let binary_tree ~depth = kary_tree ~arity:2 ~depth

let hypercube d =
  require (d >= 0 && d <= 20) "hypercube";
  let n = 1 lsl d in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for b = 0 to d - 1 do
      let v = u lxor (1 lsl b) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  Csr.of_unweighted_edges ~n !edges

let disjoint_cycles ~count ~len =
  require (count >= 1 && len >= 3) "disjoint_cycles";
  let edges = ref [] in
  for c = 0 to count - 1 do
    let base = c * len in
    for i = 0 to len - 1 do
      edges := (base + i, base + ((i + 1) mod len)) :: !edges
    done
  done;
  Csr.of_unweighted_edges ~n:(count * len) !edges

let grid_of_side n = grid ~rows:n ~cols:n

let caterpillar ~spine ~legs =
  require (spine >= 1 && legs >= 0) "caterpillar";
  let edges = ref [] in
  for s = 0 to spine - 2 do
    edges := (s, s + 1) :: !edges
  done;
  for s = 0 to spine - 1 do
    for l = 0 to legs - 1 do
      edges := (s, spine + (s * legs) + l) :: !edges
    done
  done;
  Csr.of_unweighted_edges ~n:(spine * (legs + 1)) !edges
