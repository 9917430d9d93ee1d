module Csr = Gb_graph.Csr

let validate_sides g side =
  if Array.length side <> Csr.n_vertices g then
    invalid_arg "Bisection: side array length mismatch";
  if Array.exists (fun s -> s <> 0 && s <> 1) side then
    invalid_arg "Bisection: sides must be 0 or 1"

let compute_cut g (side : int array) =
  let cut = ref 0 in
  Csr.iter_edges g (fun u v w -> if side.(u) <> side.(v) then cut := !cut + w);
  !cut

let side_counts side =
  let ones = Array.fold_left ( + ) 0 side in
  (Array.length side - ones, ones)

let side_weights g side =
  let w0 = ref 0 and w1 = ref 0 in
  Array.iteri
    (fun v s ->
      let w = Csr.vertex_weight g v in
      if s = 0 then w0 := !w0 + w else w1 := !w1 + w)
    side;
  (!w0, !w1)

let gain g (side : int array) v =
  Csr.fold_neighbors g v ~init:0 ~f:(fun acc u w ->
      if side.(u) = side.(v) then acc - w else acc + w)

let all_gains g (side : int array) =
  let gains = Array.make (Csr.n_vertices g) 0 in
  Csr.iter_edges g (fun u v w ->
      if side.(u) = side.(v) then begin
        gains.(u) <- gains.(u) - w;
        gains.(v) <- gains.(v) - w
      end
      else begin
        gains.(u) <- gains.(u) + w;
        gains.(v) <- gains.(v) + w
      end);
  gains

let swap_gain g side a b =
  if side.(a) = side.(b) then invalid_arg "Bisection.swap_gain: same side";
  gain g side a + gain g side b - (2 * Csr.edge_weight g a b)

let is_count_balanced side =
  let c0, c1 = side_counts side in
  abs (c0 - c1) <= 1

type t = {
  graph : Csr.t;
  side_arr : int array;
  cut_val : int;
  counts_val : int * int;
  weights_val : int * int;
}

let of_sides g side =
  validate_sides g side;
  let side = Array.copy side in
  {
    graph = g;
    side_arr = side;
    cut_val = compute_cut g side;
    counts_val = side_counts side;
    weights_val = side_weights g side;
  }

let sides t = Array.copy t.side_arr
let side t v = t.side_arr.(v)
let cut t = t.cut_val
let counts t = t.counts_val
let weights t = t.weights_val
let graph t = t.graph
let is_balanced t = is_count_balanced t.side_arr

let pp fmt t =
  let c0, c1 = t.counts_val in
  Format.fprintf fmt "bisection: cut %d, sides %d/%d%s" t.cut_val c0 c1
    (if is_balanced t then "" else " (UNBALANCED)")

(* Each move picks the (max gain, lowest index) vertex of the heavy
   side. The old implementation rescanned all n vertices per move —
   O(n * moves), quadratic when projection leaves a large imbalance.
   A lazy-deletion binary max-heap keyed (gain desc, index asc) makes
   it O((n + moves * degree) log n) and selects the exact same vertex
   sequence: every heavy-side vertex always has an entry carrying its
   current gain (pushed at init and on every gain change), so the best
   non-stale entry is precisely the scan's first-max-wins choice.
   Moving a vertex shrinks the imbalance by 2 and we stop before it
   reaches zero, so the heavy side — and the heap's home side — never
   flips mid-run. *)
let rebalance_in_place g side =
  validate_sides g side;
  let c0, c1 = side_counts side in
  let diff = abs (c0 - c1) in
  if diff >= 2 then begin
    let from_side = if c0 > c1 then 0 else 1 in
    let moves = diff / 2 in
    (* Maintain gains incrementally: moving u flips the contribution of
       each incident edge, changing neighbour gains by +-2w. *)
    let gains = all_gains g side in
    let n = Array.length side in
    let hg = ref (Array.make (max 16 n) 0) in
    let hv = ref (Array.make (max 16 n) 0) in
    let len = ref 0 in
    let before (g1 : int) (v1 : int) g2 v2 = g1 > g2 || (g1 = g2 && v1 < v2) in
    let swap i j =
      let h = !hg and v = !hv in
      let tg = h.(i) and tv = v.(i) in
      h.(i) <- h.(j);
      v.(i) <- v.(j);
      h.(j) <- tg;
      v.(j) <- tv
    in
    let push gval vtx =
      if !len = Array.length !hg then begin
        let grow a =
          let a' = Array.make (2 * Array.length a) 0 in
          Array.blit a 0 a' 0 !len;
          a'
        in
        hg := grow !hg;
        hv := grow !hv
      end;
      let h = !hg and v = !hv in
      h.(!len) <- gval;
      v.(!len) <- vtx;
      incr len;
      let i = ref (!len - 1) in
      while
        !i > 0
        &&
        let p = (!i - 1) / 2 in
        before h.(!i) v.(!i) h.(p) v.(p)
      do
        let p = (!i - 1) / 2 in
        swap !i p;
        i := p
      done
    in
    let pop () =
      let h = !hg and v = !hv in
      let top_g = h.(0) and top_v = v.(0) in
      decr len;
      h.(0) <- h.(!len);
      v.(0) <- v.(!len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < !len && before h.(l) v.(l) h.(!best) v.(!best) then best := l;
        if r < !len && before h.(r) v.(r) h.(!best) v.(!best) then best := r;
        if !best = !i then continue := false
        else begin
          swap !i !best;
          i := !best
        end
      done;
      (top_g, top_v)
    in
    for v = 0 to n - 1 do
      if side.(v) = from_side then push gains.(v) v
    done;
    for _ = 1 to moves do
      (* Skip stale entries: valid iff the vertex still sits on the
         heavy side and the entry carries its current gain. *)
      let rec next () =
        let gv, v = pop () in
        if side.(v) = from_side && gains.(v) = gv then v else next ()
      in
      let v = next () in
      side.(v) <- 1 - from_side;
      gains.(v) <- -gains.(v);
      Csr.iter_neighbors g v (fun u w ->
          if side.(u) = side.(v) then gains.(u) <- gains.(u) - (2 * w)
          else gains.(u) <- gains.(u) + (2 * w);
          if side.(u) = from_side then push gains.(u) u)
    done
  end

let rebalance g side =
  let side = Array.copy side in
  rebalance_in_place g side;
  side
