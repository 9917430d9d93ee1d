type t = {
  coarse : Csr.t;
  fine_to_coarse : int array;
  coarse_to_fine : int array array;
}

let contract g (m : Matching.t) =
  let n = Csr.n_vertices g in
  let fine_to_coarse = Array.make n (-1) in
  let groups = ref [] in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if fine_to_coarse.(u) < 0 then begin
      let c = !next in
      incr next;
      fine_to_coarse.(u) <- c;
      let v = m.Matching.mate.(u) in
      if v >= 0 then begin
        fine_to_coarse.(v) <- c;
        groups := [| u; v |] :: !groups
      end
      else groups := [| u |] :: !groups
    end
  done;
  let coarse_to_fine = Array.of_list (List.rev !groups) in
  let n' = !next in
  (* Emit every surviving cross edge into unboxed arrays; internal
     (contracted) edges vanish and parallel coarse edges are merged —
     weights summed — by the canonical CSR build. The old tuple-keyed
     hash table boxed every coarse edge twice at million-edge scale. *)
  let m = Csr.n_edges g in
  let csrc = Array.make (max 1 m) 0
  and cdst = Array.make (max 1 m) 0
  and cwgt = Array.make (max 1 m) 0 in
  let k = ref 0 in
  Csr.iter_edges g (fun u v w ->
      let cu = fine_to_coarse.(u) and cv = fine_to_coarse.(v) in
      if cu <> cv then begin
        csrc.(!k) <- cu;
        cdst.(!k) <- cv;
        cwgt.(!k) <- w;
        incr k
      end);
  let vertex_weights =
    Array.map
      (fun members -> Array.fold_left (fun acc v -> acc + Csr.vertex_weight g v) 0 members)
      coarse_to_fine
  in
  let coarse =
    Csr.of_edge_arrays ~vertex_weights ~edge_weights:cwgt ~n:n' ~len:!k csrc cdst
  in
  { coarse; fine_to_coarse; coarse_to_fine }

let project_to_fine c assign =
  Array.map (fun cv -> assign.(cv)) c.fine_to_coarse

let lift_to_coarse c ~f = Array.map f c.coarse_to_fine
let n_coarse c = Csr.n_vertices c.coarse
let is_identity c = Array.for_all (fun g -> Array.length g = 1) c.coarse_to_fine
