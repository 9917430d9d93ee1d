module Csr = Gb_graph.Csr

(* The power iteration runs at most [iterations] steps, and stops
   early once an iterate moves by less than [tolerance]. *)
let iterations = 500
let tolerance = 1e-7

(* x <- (cI - L) x  =  c*x - deg(v)*x(v) + sum_u w(u,v) x(u); using the
   weighted degree keeps the shift valid on weighted graphs. *)
let multiply g c x y =
  let n = Csr.n_vertices g in
  for v = 0 to n - 1 do
    let acc = ref ((c -. float_of_int (Csr.weighted_degree g v)) *. x.(v)) in
    Csr.iter_neighbors g v (fun u w -> acc := !acc +. (float_of_int w *. x.(u)));
    y.(v) <- !acc
  done

let center x =
  let n = Array.length x in
  let mean = Array.fold_left ( +. ) 0. x /. float_of_int n in
  for i = 0 to n - 1 do
    x.(i) <- x.(i) -. mean
  done

let normalize x =
  let norm = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0. x) in
  if norm > 0. then
    Array.iteri (fun i v -> x.(i) <- v /. norm) x

let fiedler_vector g =
  let n = Csr.n_vertices g in
  if n = 0 then [||]
  else begin
    (* Deterministic start with no symmetry: a fixed pseudo-random ramp. *)
    let x = Array.init n (fun i -> sin (float_of_int (i + 1) *. 12.9898) *. 43758.5453) in
    let x = Array.map (fun v -> v -. Float.of_int (int_of_float v)) x in
    center x;
    normalize x;
    let c =
      let maxdeg = ref 1 in
      for v = 0 to n - 1 do
        if Csr.weighted_degree g v > !maxdeg then maxdeg := Csr.weighted_degree g v
      done;
      2. *. float_of_int !maxdeg
    in
    let y = Array.make n 0. in
    let continue = ref true in
    let iter = ref 0 in
    while !continue && !iter < iterations do
      incr iter;
      multiply g c x y;
      center y;
      normalize y;
      (* movement = 1 - |<x, y>| ; both unit vectors *)
      let dot = ref 0. in
      for i = 0 to n - 1 do
        dot := !dot +. (x.(i) *. y.(i))
      done;
      if 1. -. Float.abs !dot < tolerance then continue := false;
      Array.blit y 0 x 0 n
    done;
    x
  end

let bisect g =
  let n = Csr.n_vertices g in
  let fiedler = fiedler_vector g in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      match Float.compare fiedler.(a) fiedler.(b) with 0 -> Int.compare a b | c -> c)
    order;
  let side = Array.make n 1 in
  for i = 0 to (n / 2) - 1 do
    side.(order.(i)) <- 0
  done;
  Bisection.of_sides g side

let bisect_refined ~refine g =
  let spectral = bisect g in
  Bisection.of_sides g (refine g (Bisection.sides spectral))
