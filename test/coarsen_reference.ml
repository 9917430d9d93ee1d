(* Test-only reference for Gbisect.Matching.random_maximal and
   Gbisect.Contraction.contract: both kernels as they stood before the
   packed edge shuffle and the quotient build, copied verbatim with
   their own result types. Matching shuffles an index permutation over
   unboxed endpoint arrays and lists its pairs; contraction groups the
   members through a list, emits every surviving cross edge into three
   m-length arrays and merges them with the general CSR build. The
   differential tests in test_graph.ml demand equal mate and
   fine_to_coarse arrays and structurally equal coarse graphs. *)

module Rng = Gbisect.Rng
module Csr = Gbisect.Graph

type matching = { mate : int array; pairs : (int * int) list }

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

type contraction = {
  coarse : Csr.t;
  fine_to_coarse : int array;
  coarse_to_fine : int array array;
}

let contract g (m : matching) =
  let n = Csr.n_vertices g in
  let fine_to_coarse = Array.make n (-1) in
  let groups = ref [] in
  let next = ref 0 in
  for u = 0 to n - 1 do
    if fine_to_coarse.(u) < 0 then begin
      let c = !next in
      incr next;
      fine_to_coarse.(u) <- c;
      let v = m.mate.(u) in
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
