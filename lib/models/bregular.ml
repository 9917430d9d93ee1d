module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr

type params = { two_n : int; b : int; d : int }

let feasible { two_n; b; d } =
  let n = two_n / 2 in
  if two_n < 4 || two_n mod 2 <> 0 then Error "two_n must be even and >= 4"
  else if d < 1 || d > n - 1 then Error "need 1 <= d <= n - 1"
  else if b < 0 || b > n * d then Error "need 0 <= b <= n * d"
  else if (n * d - b) land 1 = 1 then Error "n * d - b must be even"
  else Ok ()

let nearest_feasible_b { two_n; b; d } =
  let n = two_n / 2 in
  let b = max 0 (min b (n * d)) in
  if (n * d - b) land 1 = 0 then b
  else if b + 1 <= n * d then b + 1
  else b - 1

(* Distribute [b] endpoint slots over [n] vertices, at most [cap] each:
   repeatedly bump a random vertex that still has room. Uniform enough
   for the model's purposes and never stalls while b <= n * cap. *)
let distribute rng ~n ~b ~cap =
  let load = Array.make n 0 in
  let room = Array.init n (fun i -> i) in
  let room_len = ref n in
  for _ = 1 to b do
    let k = Rng.int rng !room_len in
    let v = room.(k) in
    load.(v) <- load.(v) + 1;
    if load.(v) = cap then begin
      decr room_len;
      room.(k) <- room.(!room_len)
    end
  done;
  load

(* Pair the cross stubs of the two sides, A stub i with B stub i, and
   redraw B's ordering until all cross edges are distinct; the result
   is the cross edges' A and B endpoints. *)
let cross_edges rng ~n ~load_a ~load_b ~b =
  let stubs_of load base =
    let a = Array.make b 0 in
    let idx = ref 0 in
    Array.iteri
      (fun v c ->
        for _ = 1 to c do
          a.(!idx) <- base + v;
          incr idx
        done)
      load;
    a
  in
  let sa = stubs_of load_a 0 and sb = stubs_of load_b n in
  (* [sa] ascends, so each A vertex's stubs are consecutive and a cross
     edge repeats iff a B vertex comes twice within one A vertex's run:
     [last.(v)] is the A vertex of the last run that met B vertex n + v. *)
  let last = Array.make n (-1) in
  let distinct () =
    Array.fill last 0 n (-1);
    let ok = ref true in
    for i = 0 to b - 1 do
      let v = sb.(i) - n in
      if last.(v) = sa.(i) then ok := false else last.(v) <- sa.(i)
    done;
    !ok
  in
  let rec draw attempts =
    if attempts = 0 then
      failwith "Bregular: could not realise distinct cross edges (b too close to n*d?)"
    else begin
      Rng.shuffle_in_place rng sb;
      if distinct () then (sa, sb) else draw (attempts - 1)
    end
  in
  if b = 0 then ([||], [||]) else draw 1000

let generate rng params =
  (match feasible params with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Bregular.generate: " ^ reason));
  let n = params.two_n / 2 in
  let { b; d; _ } = params in
  (* Cross degrees: at most d per vertex; also each side's residual
     degree sequence must be graphical, which swap repair handles. *)
  let rec side_loads attempts =
    if attempts = 0 then failwith "Bregular: could not distribute cross endpoints"
    else begin
      let load_a = distribute rng ~n ~b ~cap:d in
      let load_b = distribute rng ~n ~b ~cap:d in
      let residual load = Array.map (fun c -> d - c) load in
      let ra = residual load_a and rb = residual load_b in
      (* Residual sums are n*d - b on each side (even by feasibility);
         each must be graphical within its side of n vertices. *)
      if Degree_seq.is_graphical ra && Degree_seq.is_graphical rb then
        (load_a, load_b, ra, rb)
      else side_loads (attempts - 1)
    end
  in
  let load_a, load_b, ra, rb = side_loads 1000 in
  let cross_a, cross_b = cross_edges rng ~n ~load_a ~load_b ~b in
  let ua, va = Degree_seq.edge_arrays rng ra in
  let ub, vb = Degree_seq.edge_arrays rng rb in
  let on_b = Array.map (fun v -> n + v) in
  Csr.of_edge_arrays ~n:params.two_n
    (Array.concat [ cross_a; ua; on_b ub ])
    (Array.concat [ cross_b; va; on_b vb ])
