module Rng = Gb_prng.Rng

type t = { mate : int array; pairs : (int * int) list }

let size t = List.length t.pairs
let is_matched t u = t.mate.(u) >= 0

let of_mate mate =
  let pairs = ref [] in
  Array.iteri (fun u v -> if v > u then pairs := (u, v) :: !pairs) mate;
  { mate; pairs = List.rev !pairs }

let random_maximal rng g =
  let n = Csr.n_vertices g in
  let m = Csr.n_edges g in
  (* Unboxed endpoint arrays plus a shuffled index permutation instead
     of a shuffled tuple array: same RNG draw sequence (one draw per
     position, same length), same visit order, no per-edge boxing. *)
  let esrc = Array.make (max 1 m) 0 and edst = Array.make (max 1 m) 0 in
  let k = ref 0 in
  Csr.iter_edges g (fun u v _ ->
      esrc.(!k) <- u;
      edst.(!k) <- v;
      incr k);
  let perm = Array.init m (fun i -> i) in
  Rng.shuffle_in_place rng perm;
  let mate = Array.make n (-1) in
  Array.iter
    (fun e ->
      let u = esrc.(e) and v = edst.(e) in
      if mate.(u) < 0 && mate.(v) < 0 then begin
        mate.(u) <- v;
        mate.(v) <- u
      end)
    perm;
  of_mate mate

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
  of_mate mate

let empty g = { mate = Array.make (Csr.n_vertices g) (-1); pairs = [] }

let is_valid g t =
  Array.length t.mate = Csr.n_vertices g
  && List.for_all
       (fun (u, v) -> u < v && Csr.mem_edge g u v && t.mate.(u) = v && t.mate.(v) = u)
       t.pairs
  &&
  let matched_count = ref 0 in
  let ok = ref true in
  Array.iteri
    (fun u v ->
      if v >= 0 then begin
        incr matched_count;
        if v = u || v < 0 || v >= Array.length t.mate || t.mate.(v) <> u then ok := false
      end)
    t.mate;
  !ok && !matched_count = 2 * List.length t.pairs

let is_maximal g t =
  let free_edge = ref false in
  Csr.iter_edges g (fun u v _ -> if t.mate.(u) < 0 && t.mate.(v) < 0 then free_edge := true);
  not !free_edge
