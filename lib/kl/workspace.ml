module Csr = Gb_graph.Csr

(* Everything a pass needs, allocated once per [refine] call. Between
   passes [side] and [gains] describe the committed assignment and
   [cut] its cut. A pass never writes them: it works on [pass], four
   ints per vertex at [4 v] — the vertex's side and gain during the
   pass, then its [next] and [prev] bucket links — so that updating a
   neighbour touches one record. The buckets are the Gain_buckets
   layout for both sides in one head array: bucket [b] of side [s]
   (gain [b - range]) starts at [head.(s * width + b)], the links hold
   vertex ids with -1 as the terminator, [prev = -2 - i] marks the
   first vertex of [head.(i)], and [prev = -1] a vertex the pass has
   moved, which is in no bucket. The passes live here and walk the CSR
   slices themselves because the default profile compiles libraries
   -opaque: a call into another module, or through a closure, is never
   inlined. *)
type t = {
  xadj : Csr.ia;
  adjncy : Csr.ia;
  adjwgt : Csr.ia;
  side : int array;
  gains : int array;
  mutable cut : int;
  pass : int array;
  range : int; (* every gain lies in [-range, range] *)
  width : int; (* buckets per side, 2 * range + 1 *)
  head : int array;
  top : int array; (* per side: highest bucket that may be non-empty, or -1 *)
  log : int array; (* the pass's moves, in order *)
  mutable scanned : int; (* KL candidate pairs evaluated this pass *)
  mutable updates : int; (* neighbour gain updates this pass *)
}

(* Offsets within a vertex's [pass] record. *)
let side_at v = 4 * v
let gain_at v = (4 * v) + 1
let next_at v = (4 * v) + 2
let prev_at v = (4 * v) + 3

(* [pass] holds 4n ints and every vertex id that reaches it is below n:
   it comes from the CSR, from a bucket link or from a loop over the
   vertices. So record accesses skip the bounds check. *)
let pget (p : int array) i = Array.unsafe_get p i
let pset (p : int array) i x = Array.unsafe_set p i x

(* Indices come from [xadj] or are vertex ids below n. *)
let get (a : Csr.ia) k = Int32.to_int (Bigarray.Array1.unsafe_get a k)

let[@inline] insert ws v s gain =
  if gain < -ws.range || gain > ws.range then invalid_arg "Workspace: gain out of range";
  let p = ws.pass in
  let b = gain + ws.range in
  let i = (s * ws.width) + b in
  let h = ws.head.(i) in
  pset p (next_at v) h;
  pset p (prev_at v) (-2 - i);
  if h >= 0 then pset p (prev_at h) v;
  ws.head.(i) <- v;
  if b > ws.top.(s) then ws.top.(s) <- b

let[@inline] remove ws v =
  let p = ws.pass in
  let nxt = pget p (next_at v) and prv = pget p (prev_at v) in
  if prv <= -2 then ws.head.(-2 - prv) <- nxt else pset p (next_at prv) nxt;
  if nxt >= 0 then pset p (prev_at nxt) prv

(* Take [v] out of its bucket for good: the pass has moved it. *)
let[@inline] lock ws v =
  remove ws v;
  pset ws.pass (prev_at v) (-1)

(* The highest non-empty bucket of side [s], or -1. [top] only ever
   overestimates it, so settling on demand finds the true maximum. *)
let settle ws s =
  let base = s * ws.width in
  let t = ref ws.top.(s) in
  while !t >= 0 && ws.head.(base + !t) < 0 do
    decr t
  done;
  ws.top.(s) <- !t;
  !t

let create g side0 =
  let n = Csr.n_vertices g in
  if Array.length side0 <> n then invalid_arg "Workspace.create: side length mismatch";
  let xadj, adjncy, adjwgt = Csr.adjacency g in
  let side = Array.copy side0 and gains = Array.make n 0 in
  (* One sweep gives every gain, the largest weighted degree and twice
     the cut: [v]'s gain is its external weight minus its internal
     weight, and the cut counts each external edge from both ends. *)
  let range = ref 1 and twice_cut = ref 0 in
  for v = 0 to n - 1 do
    let s = side.(v) in
    let degree = ref 0 and outside = ref 0 in
    for k = get xadj v to get xadj (v + 1) - 1 do
      let w = get adjwgt k in
      degree := !degree + w;
      outside := !outside + ((s lxor side.(get adjncy k)) * w)
    done;
    gains.(v) <- (2 * !outside) - !degree;
    twice_cut := !twice_cut + !outside;
    if !degree > !range then range := !degree
  done;
  let width = (2 * !range) + 1 in
  {
    xadj;
    adjncy;
    adjwgt;
    side;
    gains;
    cut = !twice_cut / 2;
    pass = Array.make (4 * n) 0;
    range = !range;
    width;
    head = Array.make (2 * width) (-1);
    top = [| -1; -1 |];
    log = Array.make n 0;
    scanned = 0;
    updates = 0;
  }

let side ws = ws.side
let cut ws = ws.cut
let pairs_scanned ws = ws.scanned
let bucket_updates ws = ws.updates

(* Start a pass from the committed assignment: vertices enter their
   buckets in id order at the head, so within a bucket the latest
   insertion goes first. Returns the number of vertices on side 1. *)
let reset ws =
  let p = ws.pass in
  Array.fill ws.head 0 (Array.length ws.head) (-1);
  ws.top.(0) <- -1;
  ws.top.(1) <- -1;
  ws.scanned <- 0;
  ws.updates <- 0;
  let ones = ref 0 in
  for v = 0 to Array.length ws.side - 1 do
    let s = ws.side.(v) and gain = ws.gains.(v) in
    ones := !ones + s;
    pset p (side_at v) s;
    pset p (gain_at v) gain;
    insert ws v s gain
  done;
  !ones

(* Move [v], already locked, to side [dest]. Each neighbour [u] still in
   a bucket loses 2w when it now shares [v]'s side and gains 2w
   otherwise: (4 (side lxor dest) - 2) w. Edge weights are at least 1,
   so every update moves [u] to another bucket. *)
let flip ws v dest =
  let p = ws.pass in
  pset p (side_at v) dest;
  let updates = ref 0 in
  for k = get ws.xadj v to get ws.xadj (v + 1) - 1 do
    let u = get ws.adjncy k in
    if pget p (prev_at u) <> -1 then begin
      let s = pget p (side_at u) in
      let gain = pget p (gain_at u) + (((4 * (s lxor dest)) - 2) * get ws.adjwgt k) in
      pset p (gain_at u) gain;
      incr updates;
      remove ws u;
      insert ws u s gain
    end
  done;
  ws.updates <- ws.updates + !updates

(* Replay the pass's first [kept] moves onto the committed side and
   gains with the same update, and take the pass's [gain] off the cut. *)
let commit ws ~kept gain =
  let side = ws.side and gains = ws.gains in
  for i = 0 to kept - 1 do
    let v = ws.log.(i) in
    let dest = 1 - side.(v) in
    side.(v) <- dest;
    gains.(v) <- -gains.(v);
    for k = get ws.xadj v to get ws.xadj (v + 1) - 1 do
      let u = get ws.adjncy k in
      gains.(u) <- gains.(u) + (((4 * (side.(u) lxor dest)) - 2) * get ws.adjwgt k)
    done
  done;
  ws.cut <- ws.cut - gain

(* During an FM pass the side counts may differ by at most this much:
   the least that lets a move leave an exactly balanced assignment. *)
let tolerance = 2

(* One FM pass. Each step moves the unlocked vertex of maximal gain
   whose move keeps |c0 - c1| <= tolerance; on equal gains the heavier
   side moves, side 0 if the counts are equal. The kept prefix is the
   first balanced one of strictly best positive total gain (none if no
   prefix gains). Returns the gain and the length of the kept prefix. *)
let fm_pass ws =
  let n = Array.length ws.side in
  let c1 = ref (reset ws) in
  let c0 = ref (n - !c1) in
  let commit_tol = n land 1 in
  let moved = ref 0 and running = ref 0 and best = ref 0 and kept = ref 0 in
  let continue = ref true in
  while !continue do
    (* A move from side s is legal if afterwards |c0 - c1| <= tolerance. *)
    let t0 = if !c0 > 0 && abs (!c0 - 1 - (!c1 + 1)) <= tolerance then settle ws 0 else -1
    and t1 = if !c1 > 0 && abs (!c1 - 1 - (!c0 + 1)) <= tolerance then settle ws 1 else -1 in
    if t0 < 0 && t1 < 0 then continue := false
    else begin
      let from =
        if t1 < 0 || t0 > t1 then 0
        else if t0 < 0 || t1 > t0 then 1
        else if !c0 >= !c1 then 0
        else 1
      in
      let t = if from = 0 then t0 else t1 in
      let v = ws.head.((from * ws.width) + t) in
      lock ws v;
      let d = 1 - (2 * from) in
      c0 := !c0 - d;
      c1 := !c1 + d;
      flip ws v (1 - from);
      running := !running + (t - ws.range);
      ws.log.(!moved) <- v;
      incr moved;
      if abs (!c0 - !c1) <= commit_tol && !running > !best then begin
        best := !running;
        kept := !moved
      end
    end
  done;
  commit ws ~kept:!kept !best;
  (!best, !kept)

(* The weight of edge {a, b}, or 0: a binary search of a's sorted
   slice. *)
let edge_weight ws a b =
  let lo = ref (get ws.xadj a) and hi = ref (get ws.xadj (a + 1) - 1) and w = ref 0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = get ws.adjncy mid in
    if x < b then lo := mid + 1
    else if x > b then hi := mid - 1
    else begin
      w := get ws.adjwgt mid;
      lo := !hi + 1
    end
  done;
  !w

(* One KL pass of min(c0, c1) swaps. Each step takes the unlocked pair
   (a, b), a on side 0 and b on side 1, of maximal g_a + g_b - 2w(a, b):
   side 0 is walked from its top bucket down, each bucket from its
   head, and for each a side 1 the same way. The outer walk stops when
   g_a + max g_b cannot beat the best candidate and the inner one when
   g_a + g_b cannot, because -2w is never positive; only a strictly
   greater candidate replaces the best. The pair leaves its buckets and
   is locked, then a flips, then b. The kept prefix is the first of
   strictly best positive total gain. Returns the gain and the number
   of kept pairs. *)
let kl_pass ws =
  let ones = reset ws in
  let p = ws.pass and range = ws.range in
  let steps = min (Array.length ws.side - ones) ones in
  let pairs = ref 0 and running = ref 0 and best = ref 0 and kept = ref 0 in
  while !pairs < steps do
    let max_b = settle ws 1 - range in
    let pick = ref min_int and pick_a = ref (-1) and pick_b = ref (-1) in
    let ta = ref (settle ws 0) in
    while !ta >= 0 && !ta - range + max_b > !pick do
      let ga = !ta - range in
      let a = ref ws.head.(!ta) in
      while !a >= 0 && ga + max_b > !pick do
        let tb = ref ws.top.(1) in
        while !tb >= 0 && ga + !tb - range > !pick do
          let gab = ga + !tb - range in
          let b = ref ws.head.(ws.width + !tb) in
          while !b >= 0 && gab > !pick do
            ws.scanned <- ws.scanned + 1;
            let cand = gab - (2 * edge_weight ws !a !b) in
            if cand > !pick then begin
              pick := cand;
              pick_a := !a;
              pick_b := !b
            end;
            b := pget p (next_at !b)
          done;
          decr tb
        done;
        a := pget p (next_at !a)
      done;
      decr ta
    done;
    let a = !pick_a and b = !pick_b in
    lock ws a;
    lock ws b;
    flip ws a 1;
    flip ws b 0;
    running := !running + !pick;
    ws.log.(2 * !pairs) <- a;
    ws.log.((2 * !pairs) + 1) <- b;
    incr pairs;
    if !running > !best then begin
      best := !running;
      kept := !pairs
    end
  done;
  commit ws ~kept:(2 * !kept) !best;
  (!best, !kept)
