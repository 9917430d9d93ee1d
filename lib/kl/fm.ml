module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection

type config = { max_passes : int; until_no_improvement : bool; tolerance : int }

let default_config = { max_passes = 50; until_no_improvement = true; tolerance = 2 }

type stats = {
  passes : int;
  moves : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

let check_input g side =
  Bisection.validate_sides g side;
  let c0, c1 = Bisection.side_counts side in
  if abs (c0 - c1) > 1 then invalid_arg "Fm: input bisection is not balanced"

(* Everything a pass needs, allocated once per [refine] call. Between
   passes [side] and [gains] describe the committed assignment; a pass moves vertices in place and undoes what it does
   not keep. The buckets are the Gain_buckets layout for both sides in
   one head array: bucket [b] of side [s] (gain [b - range]) starts at
   [head.(s * width + b)], [next]/[prev] link vertex ids with -1 as the
   terminator, and [prev.(v) = -2 - i] marks [v] as the first vertex of
   [head.(i)]. They live here, next to the move loop, because the
   default profile compiles libraries -opaque and a call into
   Gain_buckets would never be inlined. *)
type workspace = {
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
  relink : int -> int -> unit; (* neighbour update during a pass *)
  replay : int -> int -> unit; (* neighbour update on the committed gains *)
}

let insert ws v s gain =
  if gain < -ws.range || gain > ws.range then invalid_arg "Fm: gain out of range";
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
   -2w when [u] now shares its side and by +2w otherwise. *)
let relink ws u w =
  if not ws.locked.(u) then begin
    let s = ws.side.(u) in
    let gain = ws.pass_gains.(u) + if s = ws.dest then -2 * w else 2 * w in
    ws.pass_gains.(u) <- gain;
    remove ws u;
    insert ws u s gain
  end

let replay ws u w =
  ws.gains.(u) <- (ws.gains.(u) + if ws.side.(u) = ws.dest then -2 * w else 2 * w)

let workspace g side0 =
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
      relink = (fun u w -> relink ws u w);
      replay = (fun u w -> replay ws u w);
    }
  in
  ws

(* One pass from the committed assignment. Vertices enter their buckets
   in id order at the head, so within a bucket the latest insertion
   goes first. Each step moves the unlocked vertex of maximal gain
   whose move keeps |c0 - c1| <= tolerance; on equal gains the heavier
   side moves, side 0 if the counts are equal. The kept prefix is the first balanced one of strictly
   best positive total gain (none if no prefix gains). Afterwards every
   move is undone and the kept prefix is replayed onto the committed
   side and gains with the same +-2w update as
   [Bisection.rebalance_in_place]. Returns the gain and the length of
   the kept prefix. *)
let pass ws ~tolerance =
  if tolerance < 2 then invalid_arg "Fm: tolerance must be >= 2";
  let n = Array.length ws.side in
  let c = ws.count in
  Array.blit ws.gains 0 ws.pass_gains 0 n;
  Array.fill ws.head 0 (Array.length ws.head) (-1);
  ws.top.(0) <- -1;
  ws.top.(1) <- -1;
  c.(0) <- 0;
  c.(1) <- 0;
  for v = 0 to n - 1 do
    let s = ws.side.(v) in
    c.(s) <- c.(s) + 1;
    insert ws v s ws.pass_gains.(v)
  done;
  let commit_tol = n land 1 in
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
      ws.side.(v) <- 1 - from;
      ws.dest <- 1 - from;
      c.(from) <- c.(from) - 1;
      c.(1 - from) <- c.(1 - from) + 1;
      Csr.iter_neighbors ws.g v ws.relink;
      running := !running + (t - ws.range);
      ws.log.(!moved) <- v;
      incr moved;
      if abs (c.(0) - c.(1)) <= commit_tol && !running > !best then begin
        best := !running;
        kept := !moved
      end
    end
  done;
  for i = !moved - 1 downto 0 do
    let v = ws.log.(i) in
    ws.side.(v) <- 1 - ws.side.(v);
    ws.locked.(v) <- false
  done;
  for i = 0 to !kept - 1 do
    let v = ws.log.(i) in
    let s = 1 - ws.side.(v) in
    ws.side.(v) <- s;
    ws.dest <- s;
    ws.gains.(v) <- -ws.gains.(v);
    Csr.iter_neighbors ws.g v ws.replay
  done;
  (!best, !kept)

let one_pass ?(tolerance = default_config.tolerance) g side =
  check_input g side;
  let ws = workspace g side in
  let gain, _ = pass ws ~tolerance in
  (ws.side, gain)

let refine ?(config = default_config) g side0 =
  check_input g side0;
  let initial_cut = Bisection.compute_cut g side0 in
  let ws = workspace g side0 in
  let pass_gains = ref [] in
  let moves = ref 0 in
  let passes = ref 0 in
  let cut = ref initial_cut in
  Gb_obs.Telemetry.sample "fm.pass" (float_of_int initial_cut);
  (try
     while !passes < config.max_passes do
       let span = Gb_obs.Trace.start () in
       let gain, kept = pass ws ~tolerance:config.tolerance in
       incr passes;
       pass_gains := gain :: !pass_gains;
       (* A vertex moves at most once per pass, so the kept prefix is
          exactly the set of vertices that changed side. *)
       moves := !moves + kept;
       cut := !cut - gain;
       Gb_obs.Telemetry.sample "fm.pass" (float_of_int !cut);
       Gb_obs.Trace.finish span "fm.pass"
         ~args:[ ("pass", Gb_obs.Json.Int !passes); ("gain", Gb_obs.Json.Int gain) ];
       if gain <= 0 && config.until_no_improvement then raise Exit
     done
   with Exit -> ());
  let final_cut = Bisection.compute_cut g ws.side in
  ( ws.side,
    {
      passes = !passes;
      moves = !moves;
      initial_cut;
      final_cut;
      pass_gains = List.rev !pass_gains;
    } )

let run ?config rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine ?config g side0 in
  (Bisection.of_sides g side, stats)
