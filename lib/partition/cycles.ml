module Csr = Gb_graph.Csr

let is_two_regular g =
  let n = Csr.n_vertices g in
  let rec loop v = v >= n || (Csr.degree g v = 2 && loop (v + 1)) in
  loop 0

(* Walk each component of a 2-regular graph, returning the vertices of
   every cycle in traversal order. *)
let cycles_of g =
  let n = Csr.n_vertices g in
  let seen = Array.make n false in
  let cycles = ref [] in
  for start = 0 to n - 1 do
    if not seen.(start) then begin
      let members = ref [ start ] in
      seen.(start) <- true;
      let prev = ref (-1) and v = ref start in
      let continue = ref true in
      while !continue do
        (* the first neighbour of v that is not prev; in a simple cycle
           this is the forward direction *)
        let next = ref (-1) in
        Csr.iter_neighbors g !v (fun u _ -> if u <> !prev && !next < 0 then next := u);
        let u = !next in
        if u = start || u < 0 then continue := false
        else begin
          members := u :: !members;
          seen.(u) <- true;
          prev := !v;
          v := u
        end
      done;
      cycles := Array.of_list (List.rev !members) :: !cycles
    end
  done;
  List.rev !cycles

let is_cycle_collection g =
  is_two_regular g
  &&
  (* 2-regularity plus simplicity already forces chordless cycles; check
     the walk covers each component consistently (cycle length >= 3). *)
  List.for_all (fun c -> Array.length c >= 3) (cycles_of g)

let cycle_lengths g =
  if not (is_two_regular g) then invalid_arg "Cycles: graph is not 2-regular";
  List.map Array.length (cycles_of g)

type choice = Unused | Whole | Split of int

(* dp.(x) = minimum number of split cycles so that whole cycles plus one
   arc from each split cycle total exactly x vertices on side A. *)
let solve_dp lengths target =
  let inf = max_int / 4 in
  let dp = Array.make (target + 1) inf in
  dp.(0) <- 0;
  let choices =
    List.map
      (fun c ->
        let next = Array.make (target + 1) inf in
        let choice = Array.make (target + 1) Unused in
        (* Sliding-window minimum of dp over [x - (c - 1), x - 1]. *)
        let deque = Array.make (target + 2) 0 in
        let head = ref 0 and tail = ref 0 in
        let push x =
          while !tail > !head && dp.(deque.(!tail - 1)) >= dp.(x) do
            decr tail
          done;
          deque.(!tail) <- x;
          incr tail
        in
        for x = 0 to target do
          (* window for position x is indices [x - c + 1, x - 1] *)
          if x >= 1 then push (x - 1);
          while !tail > !head && deque.(!head) < x - c + 1 do
            incr head
          done;
          let best = ref dp.(x) and ch = ref Unused in
          if x >= c && dp.(x - c) < !best then begin
            best := dp.(x - c);
            ch := Whole
          end;
          if !tail > !head then begin
            let idx = deque.(!head) in
            if dp.(idx) + 1 < !best then begin
              best := dp.(idx) + 1;
              ch := Split (x - idx)
            end
          end;
          next.(x) <- !best;
          choice.(x) <- !ch
        done;
        Array.blit next 0 dp 0 (target + 1);
        choice)
      lengths
  in
  (dp.(target), choices)

(* The "every split cycle costs exactly 2" argument (and the single-arc
   optimality it rests on) is a unit-edge-weight fact; on weighted
   cycles an optimal side may take several arcs through cheap edges.
   Guard the documented domain instead of silently under-counting. *)
let check_unit_edges g =
  if Csr.total_edge_weight g <> Csr.n_edges g then
    invalid_arg "Cycles: edge weights must all be 1 (width counts cut edges)"

let bisection_width g =
  let lengths = cycle_lengths g in
  check_unit_edges g;
  let n = Csr.n_vertices g in
  if n = 0 then 0
  else
    let splits, _ = solve_dp lengths (n / 2) in
    2 * splits

let best_bisection g =
  if not (is_two_regular g) then invalid_arg "Cycles: graph is not 2-regular";
  check_unit_edges g;
  let n = Csr.n_vertices g in
  let side = Array.make n 1 in
  if n > 0 then begin
    let cycles = cycles_of g in
    let lengths = List.map Array.length cycles in
    let target = n / 2 in
    let _, choices = solve_dp lengths target in
    (* Walk the DP backwards, assigning arcs/whole cycles to side 0. *)
    let x = ref target in
    List.iter2
      (fun members choice ->
        match choice.(!x) with
        | Unused -> ()
        | Whole ->
            Array.iter (fun v -> side.(v) <- 0) members;
            x := !x - Array.length members
        | Split t ->
            for i = 0 to t - 1 do
              side.(members.(i)) <- 0
            done;
            x := !x - t)
      (List.rev cycles) (List.rev choices);
    assert (!x = 0)
  end;
  Bisection.of_sides g side
