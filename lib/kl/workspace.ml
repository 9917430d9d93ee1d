module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection

(* Everything a pass needs, allocated once per [refine] call. Between
   passes [side] and [gains] describe the committed assignment; a pass
   moves vertices in place and undoes what it does not keep. The
   buckets are the Gain_buckets layout for both sides in one head
   array: bucket [b] of side [s] (gain [b - range]) starts at
   [head.(s * width + b)], [next]/[prev] link vertex ids with -1 as the
   terminator, and [prev.(v) = -2 - i] marks [v] as the first vertex of
   [head.(i)]. They live here, next to both move loops, because the
   default profile compiles libraries -opaque and a call into another
   module would never be inlined. *)
type t = {
  g : Csr.t;
  side : int array;
  gains : int array;
  pass_gains : int array; (* exact for the vertices a pass has not locked *)
  locked : bool array;
  range : int; (* every gain lies in [-range, range] *)
  width : int; (* buckets per side, 2 * range + 1 *)
  head : int array;
  next : int array;
  prev : int array;
  top : int array; (* per side: highest bucket that may be non-empty, or -1 *)
  count : int array; (* vertices per side during a pass *)
  log : int array; (* the pass's moves, in order *)
  mutable dest : int; (* the side the vertex being moved goes to *)
  mutable scanned : int; (* KL candidate pairs evaluated this pass *)
  mutable updates : int; (* neighbour gain updates this pass *)
  relink : int -> int -> unit; (* neighbour update during a pass *)
  replay : int -> int -> unit; (* neighbour update on the committed gains *)
}

let insert ws v s gain =
  if gain < -ws.range || gain > ws.range then invalid_arg "Workspace: gain out of range";
  let b = gain + ws.range in
  let i = (s * ws.width) + b in
  let h = ws.head.(i) in
  ws.next.(v) <- h;
  ws.prev.(v) <- -2 - i;
  if h >= 0 then ws.prev.(h) <- v;
  ws.head.(i) <- v;
  if b > ws.top.(s) then ws.top.(s) <- b

let remove ws v =
  let nxt = ws.next.(v) and prv = ws.prev.(v) in
  if prv <= -2 then ws.head.(-2 - prv) <- nxt else ws.next.(prv) <- nxt;
  if nxt >= 0 then ws.prev.(nxt) <- prv

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

(* Moving a vertex to [dest] changes the gain of each neighbour [u] by
   -2w when [u] now shares its side and by +2w otherwise. Edge weights
   are at least 1, so every update moves [u] to another bucket. *)
let relink ws u w =
  if not ws.locked.(u) then begin
    let s = ws.side.(u) in
    let gain = ws.pass_gains.(u) + if s = ws.dest then -2 * w else 2 * w in
    ws.pass_gains.(u) <- gain;
    ws.updates <- ws.updates + 1;
    remove ws u;
    insert ws u s gain
  end

let replay ws u w =
  ws.gains.(u) <- (ws.gains.(u) + if ws.side.(u) = ws.dest then -2 * w else 2 * w)

let create g side0 =
  let n = Csr.n_vertices g in
  let range =
    let r = ref 1 in
    for v = 0 to n - 1 do
      let d = Csr.weighted_degree g v in
      if d > !r then r := d
    done;
    !r
  in
  let width = (2 * range) + 1 in
  let side = Array.copy side0
  and gains = Bisection.all_gains g side0
  and pass_gains = Array.make n 0
  and locked = Array.make n false
  and head = Array.make (2 * width) (-1)
  and next = Array.make n (-1)
  and prev = Array.make n (-1)
  and log = Array.make n 0 in
  let rec ws =
    {
      g;
      side;
      gains;
      pass_gains;
      locked;
      range;
      width;
      head;
      next;
      prev;
      top = [| -1; -1 |];
      count = [| 0; 0 |];
      log;
      dest = 0;
      scanned = 0;
      updates = 0;
      relink = (fun u w -> relink ws u w);
      replay = (fun u w -> replay ws u w);
    }
  in
  ws

let side ws = ws.side
let pairs_scanned ws = ws.scanned
let bucket_updates ws = ws.updates

(* Start a pass from the committed assignment: vertices enter their
   buckets in id order at the head, so within a bucket the latest
   insertion goes first. *)
let reset ws =
  let n = Array.length ws.side in
  let c = ws.count in
  Array.blit ws.gains 0 ws.pass_gains 0 n;
  Array.fill ws.head 0 (Array.length ws.head) (-1);
  ws.top.(0) <- -1;
  ws.top.(1) <- -1;
  c.(0) <- 0;
  c.(1) <- 0;
  ws.scanned <- 0;
  ws.updates <- 0;
  for v = 0 to n - 1 do
    let s = ws.side.(v) in
    c.(s) <- c.(s) + 1;
    insert ws v s ws.pass_gains.(v)
  done

(* Undo the pass's [moved] moves, then replay the first [kept] onto the
   committed side and gains with the same +-2w update as
   [Bisection.rebalance_in_place]. *)
let commit ws ~moved ~kept =
  for i = moved - 1 downto 0 do
    let v = ws.log.(i) in
    ws.side.(v) <- 1 - ws.side.(v);
    ws.locked.(v) <- false
  done;
  for i = 0 to kept - 1 do
    let v = ws.log.(i) in
    let s = 1 - ws.side.(v) in
    ws.side.(v) <- s;
    ws.dest <- s;
    ws.gains.(v) <- -ws.gains.(v);
    Csr.iter_neighbors ws.g v ws.replay
  done

(* Move [v], locked and out of its bucket, to side [dest]. *)
let flip ws v dest =
  ws.side.(v) <- dest;
  ws.dest <- dest;
  Csr.iter_neighbors ws.g v ws.relink

(* One FM pass. Each step moves the unlocked vertex of maximal gain
   whose move keeps |c0 - c1| <= tolerance; on equal gains the heavier
   side moves, side 0 if the counts are equal. The kept prefix is the
   first balanced one of strictly best positive total gain (none if no
   prefix gains). Returns the gain and the length of the kept prefix. *)
let fm_pass ws ~tolerance =
  if tolerance < 2 then invalid_arg "Fm: tolerance must be >= 2";
  reset ws;
  let c = ws.count in
  let commit_tol = Array.length ws.side land 1 in
  let moved = ref 0 and running = ref 0 and best = ref 0 and kept = ref 0 in
  let continue = ref true in
  while !continue do
    (* A move from side s is legal if afterwards |c0 - c1| <= tolerance. *)
    let t0 =
      if c.(0) > 0 && abs (c.(0) - 1 - (c.(1) + 1)) <= tolerance then settle ws 0 else -1
    and t1 =
      if c.(1) > 0 && abs (c.(1) - 1 - (c.(0) + 1)) <= tolerance then settle ws 1 else -1
    in
    if t0 < 0 && t1 < 0 then continue := false
    else begin
      let from =
        if t1 < 0 || t0 > t1 then 0
        else if t0 < 0 || t1 > t0 then 1
        else if c.(0) >= c.(1) then 0
        else 1
      in
      let t = if from = 0 then t0 else t1 in
      let v = ws.head.((from * ws.width) + t) in
      remove ws v;
      ws.locked.(v) <- true;
      c.(from) <- c.(from) - 1;
      c.(1 - from) <- c.(1 - from) + 1;
      flip ws v (1 - from);
      running := !running + (t - ws.range);
      ws.log.(!moved) <- v;
      incr moved;
      if abs (c.(0) - c.(1)) <= commit_tol && !running > !best then begin
        best := !running;
        kept := !moved
      end
    end
  done;
  commit ws ~moved:!moved ~kept:!kept;
  (!best, !kept)

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
  reset ws;
  let range = ws.range in
  let steps = min ws.count.(0) ws.count.(1) in
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
            let cand = gab - (2 * Csr.edge_weight ws.g !a !b) in
            if cand > !pick then begin
              pick := cand;
              pick_a := !a;
              pick_b := !b
            end;
            b := ws.next.(!b)
          done;
          decr tb
        done;
        a := ws.next.(!a)
      done;
      decr ta
    done;
    let a = !pick_a and b = !pick_b in
    remove ws a;
    remove ws b;
    ws.locked.(a) <- true;
    ws.locked.(b) <- true;
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
  commit ws ~moved:(2 * !pairs) ~kept:(2 * !kept);
  (!best, !kept)
