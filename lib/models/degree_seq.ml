module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr

let is_graphical deg =
  let n = Array.length deg in
  if Array.exists (fun d -> d < 0 || d > n - 1) deg then false
  else begin
    let sum = Array.fold_left ( + ) 0 deg in
    if sum land 1 = 1 then false
    else begin
      (* Every degree lies in [0, n-1], so a counting sort orders them,
         descending. *)
      let count = Array.make n 0 in
      Array.iter (fun x -> count.(x) <- count.(x) + 1) deg;
      let d = Array.make n 0 in
      let i = ref 0 in
      for x = n - 1 downto 0 do
        for _ = 1 to count.(x) do
          d.(!i) <- x;
          incr i
        done
      done;
      (* Erdős–Gallai: for every k,
         sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k). *)
      let prefix = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        prefix.(i + 1) <- prefix.(i) + d.(i)
      done;
      let ok = ref true in
      (* [ge] counts the degrees >= k: the d_i >= k are d.(0 .. ge-1). *)
      let ge = ref n in
      for k = 1 to n do
        ge := !ge - count.(k - 1);
        if !ok then begin
          (* Tail sum of min(d_i, k) for i in [k, n): the first index at
             or after k with d_i < k splits it. *)
          let split = max k !ge in
          let tail = (k * (split - k)) + (prefix.(n) - prefix.(split)) in
          if prefix.(k) > (k * (k - 1)) + tail then ok := false
        end
      done;
      !ok
    end
  end

(* The multiset of vertex pairs the repair keeps: an open-addressing
   table with linear probing, each pair packed into one int key
   (smaller endpoint lsl 31, lor the larger; endpoints fit in 31 bits)
   beside its multiplicity, doubled at half load. A pair whose count
   falls to zero keeps its slot, which reads as absent. *)
type pairs = {
  mutable keys : int array; (* -1 marks an empty slot *)
  mutable counts : int array;
  mutable shift : int; (* 63 - log2 (Array.length keys) *)
  mutable used : int;
}

let pair_key u v = if u < v then (u lsl 31) lor v else (v lsl 31) lor u

(* Multiplicative hashing: the top bits of the 63-bit product pick the
   first slot to probe. *)
let slot t k =
  let mask = Array.length t.keys - 1 in
  let i = ref ((k * 0x2545F4914F6CDD1D) lsr t.shift) in
  while t.keys.(!i) <> k && t.keys.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  !i

(* At most half full with the pairing's m edges; the pairs rewiring
   adds may double it. *)
let pairs_create m =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * m do
    incr bits
  done;
  let cap = 1 lsl !bits in
  { keys = Array.make cap (-1); counts = Array.make cap 0; shift = 63 - !bits; used = 0 }

let count t u v =
  let k = pair_key u v in
  let i = slot t k in
  if t.keys.(i) = k then t.counts.(i) else 0

let bump t u v delta =
  let k = pair_key u v in
  let i = slot t k in
  if t.keys.(i) = k then t.counts.(i) <- t.counts.(i) + delta
  else begin
    t.keys.(i) <- k;
    t.counts.(i) <- delta;
    t.used <- t.used + 1;
    if 2 * t.used > Array.length t.keys then begin
      let keys = t.keys and counts = t.counts in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.counts <- Array.make (2 * Array.length keys) 0;
      t.shift <- t.shift - 1;
      Array.iteri
        (fun j k ->
          if k >= 0 then begin
            let i = slot t k in
            t.keys.(i) <- k;
            t.counts.(i) <- counts.(j)
          end)
        keys
    end
  end

(* One attempt: random pairing then bounded repair by double-edge swaps. *)
let attempt rng deg =
  let stubs = Array.make (Array.fold_left ( + ) 0 deg) 0 in
  let idx = ref 0 in
  Array.iteri
    (fun v d ->
      for _ = 1 to d do
        stubs.(!idx) <- v;
        incr idx
      done)
    deg;
  Rng.shuffle_in_place rng stubs;
  let m = Array.length stubs / 2 in
  let eu = Array.make m 0 and ev = Array.make m 0 in
  let pairs = pairs_create m in
  for e = 0 to m - 1 do
    eu.(e) <- stubs.(2 * e);
    ev.(e) <- stubs.((2 * e) + 1);
    bump pairs eu.(e) ev.(e) 1
  done;
  let is_bad e = eu.(e) = ev.(e) || count pairs eu.(e) ev.(e) > 1 in
  let any_bad () =
    let e = ref 0 in
    while !e < m && not (is_bad !e) do
      incr e
    done;
    !e < m
  in
  (* Rewire edges e1 and e2 into {x1, y1} and {x2, y2}, unless that
     makes a self-loop or a pair already present. *)
  let rewire e1 e2 x1 y1 x2 y2 =
    if x1 = y1 || x2 = y2 then false
    else begin
      let a = eu.(e1) and b = ev.(e1) and c = eu.(e2) and d = ev.(e2) in
      bump pairs a b (-1);
      bump pairs c d (-1);
      if count pairs x1 y1 > 0 || count pairs x2 y2 > 0 || pair_key x1 y1 = pair_key x2 y2
      then begin
        bump pairs a b 1;
        bump pairs c d 1;
        false
      end
      else begin
        bump pairs x1 y1 1;
        bump pairs x2 y2 1;
        eu.(e1) <- x1;
        ev.(e1) <- y1;
        eu.(e2) <- x2;
        ev.(e2) <- y2;
        true
      end
    end
  in
  (* Repair loop: each bad edge proposes swaps with random partners. *)
  let budget = ref (200 * (m + 1)) in
  let progress = ref true in
  while any_bad () && !budget > 0 && !progress do
    progress := false;
    for e1 = 0 to m - 1 do
      if is_bad e1 && !budget > 0 then begin
        let tries = ref 20 in
        let fixed = ref false in
        while (not !fixed) && !tries > 0 && !budget > 0 do
          decr tries;
          decr budget;
          let e2 = Rng.int rng m in
          if e2 <> e1 then begin
            let a = eu.(e1) and b = ev.(e1) and c = eu.(e2) and d = ev.(e2) in
            (* Two rewirings, {a,c}{b,d} and {a,d}{b,c}: a coin picks
               the one tried first. *)
            let flip = Rng.bool rng in
            let p = if flip then c else d and q = if flip then d else c in
            if rewire e1 e2 a p b q || rewire e1 e2 a q b p then begin
              fixed := true;
              progress := true
            end
          end
        done
      end
    done
  done;
  if any_bad () then None else Some (eu, ev)

let edge_arrays rng deg =
  let n = Array.length deg in
  if Array.exists (fun d -> d < 0 || d > n - 1) deg then
    invalid_arg "Degree_seq.generate: degree out of range";
  if Array.fold_left ( + ) 0 deg land 1 = 1 then
    invalid_arg "Degree_seq.generate: odd degree sum";
  if not (is_graphical deg) then failwith "Degree_seq.generate: sequence is not graphical";
  let rec loop attempts =
    if attempts = 0 then
      failwith "Degree_seq.generate: could not realise sequence (swap repair stalled)"
    else match attempt rng deg with Some edges -> edges | None -> loop (attempts - 1)
  in
  loop 100

let generate rng deg =
  let eu, ev = edge_arrays rng deg in
  Csr.of_edge_arrays ~n:(Array.length deg) eu ev

let random_regular rng ~n ~d =
  if d < 0 || d >= max n 1 || n * d land 1 = 1 then invalid_arg "Degree_seq.random_regular";
  generate rng (Array.make n d)
