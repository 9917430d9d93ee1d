type t = {
  n : int;
  (* net -> members *)
  net_ptr : int array; (* n_nets + 1 *)
  net_mem : int array;
  (* vertex -> nets *)
  vtx_ptr : int array; (* n + 1 *)
  vtx_net : int array;
}

let of_nets ~n nets =
  if n < 0 then invalid_arg "Hgraph.of_nets: negative n";
  let cleaned =
    List.map
      (fun net ->
        (match net with [] -> invalid_arg "Hgraph.of_nets: empty net" | _ -> ());
        List.iter
          (fun v ->
            if v < 0 || v >= n then invalid_arg "Hgraph.of_nets: member out of range")
          net;
        Array.of_list (List.sort_uniq Int.compare net))
      nets
  in
  let nets_arr = Array.of_list cleaned in
  let n_nets = Array.length nets_arr in
  let net_ptr = Array.make (n_nets + 1) 0 in
  Array.iteri (fun e m -> net_ptr.(e + 1) <- net_ptr.(e) + Array.length m) nets_arr;
  let total = net_ptr.(n_nets) in
  let net_mem = Array.make total 0 in
  Array.iteri
    (fun e m -> Array.iteri (fun i v -> net_mem.(net_ptr.(e) + i) <- v) m)
    nets_arr;
  (* dual *)
  let deg = Array.make n 0 in
  Array.iter (fun v -> deg.(v) <- deg.(v) + 1) net_mem;
  let vtx_ptr = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    vtx_ptr.(v + 1) <- vtx_ptr.(v) + deg.(v)
  done;
  let vtx_net = Array.make total 0 in
  let fill = Array.copy vtx_ptr in
  Array.iteri
    (fun e m ->
      Array.iter
        (fun v ->
          vtx_net.(fill.(v)) <- e;
          fill.(v) <- fill.(v) + 1)
        m)
    nets_arr;
  (* nets are visited in ascending id order, so vtx_net slices are sorted *)
  { n; net_ptr; net_mem; vtx_ptr; vtx_net }

let n_vertices h = h.n
let n_nets h = Array.length h.net_ptr - 1
let n_pins h = Array.length h.net_mem
let net_size h e = h.net_ptr.(e + 1) - h.net_ptr.(e)
let vertex_degree h v = h.vtx_ptr.(v + 1) - h.vtx_ptr.(v)

let iter_net h e f =
  for k = h.net_ptr.(e) to h.net_ptr.(e + 1) - 1 do
    f h.net_mem.(k)
  done

let iter_vertex_nets h v f =
  for k = h.vtx_ptr.(v) to h.vtx_ptr.(v + 1) - 1 do
    f h.vtx_net.(k)
  done

let net_members h e = Array.sub h.net_mem h.net_ptr.(e) (net_size h e)
let average_net_size h =
  if n_nets h = 0 then 0. else float_of_int (n_pins h) /. float_of_int (n_nets h)

let induced h cells =
  let n = n_vertices h in
  let from_parent = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Hgraph.induced: id out of range";
      if from_parent.(v) >= 0 then invalid_arg "Hgraph.induced: duplicate id";
      from_parent.(v) <- i)
    cells;
  let nets = ref [] in
  for e = n_nets h - 1 downto 0 do
    let restricted = ref [] in
    iter_net h e (fun v -> if from_parent.(v) >= 0 then restricted := from_parent.(v) :: !restricted);
    match !restricted with _ :: _ :: _ -> nets := !restricted :: !nets | _ -> ()
  done;
  of_nets ~n:(Array.length cells) !nets

let cut_size h side =
  if Array.length side <> h.n then invalid_arg "Hgraph.cut_size: side length";
  let cut = ref 0 in
  for e = 0 to n_nets h - 1 do
    let saw0 = ref false and saw1 = ref false in
    iter_net h e (fun v -> if side.(v) = 0 then saw0 := true else saw1 := true);
    if !saw0 && !saw1 then incr cut
  done;
  !cut

let pp fmt h =
  (* lint: allow no-float-format — display-only pretty-printer *)
  Format.fprintf fmt "hypergraph: %d vertices, %d nets, %d pins, avg net size %.2f" h.n
    (n_nets h) (n_pins h) (average_net_size h)
