module Rng = Gb_prng.Rng
module Gain_buckets = Gb_kl.Gain_buckets

type stats = {
  passes : int;
  moves : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

let check_input h side =
  if Array.length side <> Hgraph.n_vertices h then invalid_arg "Hfm: side length mismatch";
  if Array.exists (fun s -> s <> 0 && s <> 1) side then invalid_arg "Hfm: sides must be 0 or 1";
  let ones = Array.fold_left ( + ) 0 side in
  let zeros = Array.length side - ones in
  if abs (zeros - ones) > 1 then invalid_arg "Hfm: input bisection is not balanced"

(* Initial gain of v: +1 for every net where v is the last pin on its
   side and the other side is inhabited; -1 for every net entirely on
   v's side with other pins. *)
let initial_gains h side pins =
  let n = Hgraph.n_vertices h in
  let gains = Array.make n 0 in
  for v = 0 to n - 1 do
    let s = side.(v) in
    Hgraph.iter_vertex_nets h v (fun e ->
        let same = pins.(e).(s) and other = pins.(e).(1 - s) in
        if same = 1 && other > 0 then gains.(v) <- gains.(v) + 1
        else if other = 0 && same > 1 then gains.(v) <- gains.(v) - 1)
  done;
  gains

(* During a pass the side counts may differ by at most this much: the
   least that lets a move leave an exactly balanced assignment. *)
let tolerance = 2

let one_pass h side0 =
  let n = Hgraph.n_vertices h in
  let n_nets = Hgraph.n_nets h in
  let side = Array.copy side0 in
  let pins = Array.init n_nets (fun _ -> [| 0; 0 |]) in
  for e = 0 to n_nets - 1 do
    Hgraph.iter_net h e (fun v -> pins.(e).(side.(v)) <- pins.(e).(side.(v)) + 1)
  done;
  let gains = initial_gains h side pins in
  let locked = Array.make n false in
  let range =
    let r = ref 1 in
    for v = 0 to n - 1 do
      let d = Hgraph.vertex_degree h v in
      if d > !r then r := d
    done;
    !r
  in
  let buckets =
    [| Gain_buckets.create ~capacity:n ~range; Gain_buckets.create ~capacity:n ~range |]
  in
  for v = 0 to n - 1 do
    Gain_buckets.insert buckets.(side.(v)) v gains.(v)
  done;
  let c = [| 0; 0 |] in
  Array.iter (fun s -> c.(s) <- c.(s) + 1) side;
  let commit_tol = n land 1 in
  let moves = Array.make (max n 1) 0 in
  let cumulative = Array.make (max n 1) 0 in
  let balanced_at = Array.make (max n 1) false in
  let running = ref 0 in
  let performed = ref 0 in
  let bump u delta =
    gains.(u) <- gains.(u) + delta;
    Gain_buckets.update buckets.(side.(u)) u gains.(u)
  in
  (* FM net-state update rules around moving v from side f to side t. *)
  let move v =
    let f = side.(v) in
    let t = 1 - f in
    locked.(v) <- true;
    Hgraph.iter_vertex_nets h v (fun e ->
        let p = pins.(e) in
        (* before the move *)
        if p.(t) = 0 then Hgraph.iter_net h e (fun u -> if not locked.(u) then bump u 1)
        else if p.(t) = 1 then
          Hgraph.iter_net h e (fun u ->
              if (not locked.(u)) && side.(u) = t then bump u (-1));
        p.(f) <- p.(f) - 1;
        p.(t) <- p.(t) + 1;
        (* after the move (v now counted on t, but v is locked) *)
        if p.(f) = 0 then Hgraph.iter_net h e (fun u -> if not locked.(u) then bump u (-1))
        else if p.(f) = 1 then
          Hgraph.iter_net h e (fun u ->
              if (not locked.(u)) && side.(u) = f then bump u 1));
    side.(v) <- t;
    c.(f) <- c.(f) - 1;
    c.(t) <- c.(t) + 1
  in
  (try
     for i = 0 to n - 1 do
       let legal s = c.(s) > 0 && abs (c.(s) - 1 - (c.(1 - s) + 1)) <= tolerance in
       let candidate s = if legal s then Gain_buckets.max_gain buckets.(s) else None in
       let from_side =
         match (candidate 0, candidate 1) with
         | None, None -> raise Exit
         | Some _, None -> 0
         | None, Some _ -> 1
         | Some g0, Some g1 ->
             if g0 > g1 then 0
             else if g1 > g0 then 1
             else if c.(0) >= c.(1) then 0
             else 1
       in
       let v, gv =
         match Gain_buckets.pop_max buckets.(from_side) with
         | Some p -> p
         | None -> raise Exit
       in
       move v;
       running := !running + gv;
       moves.(i) <- v;
       cumulative.(i) <- !running;
       balanced_at.(i) <- abs (c.(0) - c.(1)) <= commit_tol;
       incr performed
     done
   with Exit -> ());
  let best_k = ref 0 and best_gain = ref 0 in
  for i = 0 to !performed - 1 do
    if balanced_at.(i) && cumulative.(i) > !best_gain then begin
      best_gain := cumulative.(i);
      best_k := i + 1
    end
  done;
  if !best_gain <= 0 then (Array.copy side0, 0)
  else begin
    let result = Array.copy side0 in
    for i = 0 to !best_k - 1 do
      result.(moves.(i)) <- 1 - result.(moves.(i))
    done;
    (result, !best_gain)
  end

let refine ?(max_passes = 50) h side0 =
  check_input h side0;
  let initial_cut = Hgraph.cut_size h side0 in
  let side = ref (Array.copy side0) in
  let pass_gains = ref [] in
  let moves = ref 0 in
  let passes = ref 0 in
  (try
     while !passes < max_passes do
       let next, gain = one_pass h !side in
       incr passes;
       pass_gains := gain :: !pass_gains;
       if gain > 0 then begin
         Array.iteri (fun v s -> if s <> next.(v) then incr moves) !side;
         side := next
       end
       else raise Exit
     done
   with Exit -> ());
  let final_cut = Hgraph.cut_size h !side in
  ( !side,
    {
      passes = !passes;
      moves = !moves;
      initial_cut;
      final_cut;
      pass_gains = List.rev !pass_gains;
    } )

let random_sides rng n =
  let perm = Rng.permutation rng n in
  let side = Array.make n 1 in
  for i = 0 to (n / 2) - 1 do
    side.(perm.(i)) <- 0
  done;
  side

let run rng h =
  let side0 = random_sides rng (Hgraph.n_vertices h) in
  refine h side0
