module Pool = Gb_par.Pool

type t = {
  coarse : Csr.t;
  fine_to_coarse : int array;
  coarse_to_fine : int array array;
}

(* Spawning domains for a tiny edge sweep costs more than the sweep;
   below this many edges the surviving-edge emission is sequential. *)
let par_contract_threshold = 1 lsl 15

(* Emit the surviving cross edges (fine edges whose endpoints land in
   distinct coarse vertices) into csrc/cdst/cwgt, returning how many.
   Chunked over CSR source ranges with the same count / prefix-sum /
   fill discipline as Matching.upper_edges: each chunk owns a disjoint
   slice in range order, so the emitted arrays — and hence the coarse
   graph the canonical CSR build merges them into — are byte-identical
   to the sequential sweep at any chunk and job count. *)
let emit_surviving ?chunks g (fine_to_coarse : int array) csrc cdst cwgt =
  let n = Csr.n_vertices g in
  let pool = Pool.current () in
  let sequential_default =
    chunks = None
    && (Pool.domains pool <= 1 || Pool.in_worker ()
       || Csr.n_edges g < par_contract_threshold)
  in
  (match chunks with
  | Some c when c < 1 -> invalid_arg "Contraction.contract: chunks < 1"
  | _ -> ());
  if sequential_default then begin
    let k = ref 0 in
    Csr.iter_edges g (fun u v w ->
        let cu = fine_to_coarse.(u) and cv = fine_to_coarse.(v) in
        if cu <> cv then begin
          csrc.(!k) <- cu;
          cdst.(!k) <- cv;
          cwgt.(!k) <- w;
          incr k
        end);
    !k
  end
  else begin
    let chunks =
      match chunks with
      | Some c -> min c (max 1 n)
      | None -> min (4 * Pool.domains pool) (max 1 n)
    in
    let bounds c = (c * n / chunks, (c + 1) * n / chunks) in
    let counts =
      Pool.init pool chunks (fun c ->
          let lo, hi = bounds c in
          let cnt = ref 0 in
          Csr.iter_edges_range g ~lo ~hi (fun u v _ ->
              if fine_to_coarse.(u) <> fine_to_coarse.(v) then incr cnt);
          !cnt)
    in
    let offsets = Array.make chunks 0 in
    for c = 1 to chunks - 1 do
      offsets.(c) <- offsets.(c - 1) + counts.(c - 1)
    done;
    ignore
      (Pool.init pool chunks (fun c ->
           let lo, hi = bounds c in
           let k = ref offsets.(c) in
           Csr.iter_edges_range g ~lo ~hi (fun u v w ->
               let cu = fine_to_coarse.(u) and cv = fine_to_coarse.(v) in
               if cu <> cv then begin
                 csrc.(!k) <- cu;
                 cdst.(!k) <- cv;
                 cwgt.(!k) <- w;
                 incr k
               end)));
    offsets.(chunks - 1) + counts.(chunks - 1)
  end

let contract ?chunks g (m : Matching.t) =
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
  let k = emit_surviving ?chunks g fine_to_coarse csrc cdst cwgt in
  let vertex_weights =
    Array.map
      (fun members -> Array.fold_left (fun acc v -> acc + Csr.vertex_weight g v) 0 members)
      coarse_to_fine
  in
  let coarse =
    Csr.of_edge_arrays ~vertex_weights ~edge_weights:cwgt ~n:n' ~len:k csrc cdst
  in
  { coarse; fine_to_coarse; coarse_to_fine }

let project_to_fine c assign =
  Array.map (fun cv -> assign.(cv)) c.fine_to_coarse

let lift_to_coarse c ~f = Array.map f c.coarse_to_fine
let n_coarse c = Csr.n_vertices c.coarse
let is_identity c = Array.for_all (fun g -> Array.length g = 1) c.coarse_to_fine
