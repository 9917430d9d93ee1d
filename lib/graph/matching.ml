module Rng = Gb_prng.Rng

type t = { mate : int array }

let size t =
  let matched = ref 0 in
  Array.iter (fun v -> if v >= 0 then incr matched) t.mate;
  !matched / 2

let random_maximal rng g =
  let n = Csr.n_vertices g in
  (* One packed (u lsl 31) lor v per edge, in iter_edges order (u < v
     < 2^31, so it fits a 63-bit int). Shuffling it makes the same
     draws as shuffling the index permutation 0..m-1 (one per
     position), so the edges are visited in that same order. *)
  let edges = Array.make (Csr.n_edges g) 0 in
  let k = ref 0 in
  Csr.iter_edges g (fun u v _ ->
      edges.(!k) <- (u lsl 31) lor v;
      incr k);
  Rng.shuffle_in_place rng edges;
  let mate = Array.make n (-1) in
  Array.iter
    (fun e ->
      let u = e lsr 31 and v = e land 0x7FFFFFFF in
      if mate.(u) < 0 && mate.(v) < 0 then begin
        mate.(u) <- v;
        mate.(v) <- u
      end)
    edges;
  { mate }

let heavy_edge rng g =
  let n = Csr.n_vertices g in
  let order = Rng.permutation rng n in
  let mate = Array.make n (-1) in
  Array.iter
    (fun u ->
      if mate.(u) < 0 then begin
        let best = ref (-1) and best_w = ref 0 in
        Csr.iter_neighbors g u (fun v w ->
            if mate.(v) < 0 && (w > !best_w || (w = !best_w && !best >= 0 && v < !best))
            then begin
              best := v;
              best_w := w
            end);
        if !best >= 0 then begin
          mate.(u) <- !best;
          mate.(!best) <- u
        end
      end)
    order;
  { mate }

let is_valid g t =
  let n = Csr.n_vertices g in
  Array.length t.mate = n
  &&
  let ok = ref true in
  Array.iteri
    (fun u v ->
      if v >= 0 && (v = u || v >= n || t.mate.(v) <> u || not (Csr.mem_edge g u v)) then
        ok := false)
    t.mate;
  !ok

let is_maximal g t =
  let free_edge = ref false in
  Csr.iter_edges g (fun u v _ -> if t.mate.(u) < 0 && t.mate.(v) < 0 then free_edge := true);
  not !free_edge
