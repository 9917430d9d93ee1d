(* Compact CSR backing store.

   All four structural arrays (xadj offsets, neighbour ids, edge
   weights, vertex weights) live in int32 Bigarrays: half the footprint
   of boxed-free OCaml int arrays on 64-bit, and invisible to the GC
   (no marking cost on multi-million-edge graphs). `Int32.to_int` on a
   freshly loaded element unboxes locally in native code, so the
   accessors below stay allocation-free on the hot paths.

   The representation is canonical: every vertex's slice is strictly
   sorted by neighbour id and parallel edges are merged at build time,
   so two graphs built from the same edge multiset in any order are
   structurally equal. *)

type ia = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  xadj : ia; (* length n+1; adjacency of u is adjncy.(xadj.(u) .. xadj.(u+1)-1) *)
  adjncy : ia; (* neighbour ids, strictly sorted within each vertex's slice *)
  adjwgt : ia; (* parallel array of edge weights *)
  vwgt : ia; (* length n *)
  m : int; (* undirected edge count *)
  total_edge_weight : int;
  total_vertex_weight : int;
}

let ia_create len : ia = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len

(* Trusted-index accessors for loops whose indices come from xadj. *)
let get (a : ia) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let set (a : ia) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

(* Bounds-checked accessor for caller-supplied vertex ids. *)
let get_checked (a : ia) i = Int32.to_int (Bigarray.Array1.get a i)

(* ------------------------------------------------------------------ *)
(* Scale limits                                                        *)

(* Neighbour ids and xadj offsets are stored as int32, so both the
   vertex count and twice the edge count must fit. These are the
   ingestion-boundary limits readers validate against before
   allocating anything proportional to a hostile header. *)
let max_vertices = Int32.to_int Int32.max_int
let max_edges = Int32.to_int Int32.max_int / 2
let max_weight = Int32.to_int Int32.max_int

let validate_scale ~n ~m =
  if n > max_vertices then
    failwith (Printf.sprintf "graph too large: %d vertices (max %d)" n max_vertices);
  if m > max_edges then
    failwith (Printf.sprintf "graph too large: %d edges (max %d)" m max_edges)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let n_vertices g = g.n
let n_edges g = g.m
let vertex_weight g u = get_checked g.vwgt u
let total_vertex_weight g = g.total_vertex_weight
let total_edge_weight g = g.total_edge_weight
let degree g u = get_checked g.xadj (u + 1) - get_checked g.xadj u

let weighted_degree g u =
  let acc = ref 0 in
  for k = get_checked g.xadj u to get_checked g.xadj (u + 1) - 1 do
    acc := !acc + get g.adjwgt k
  done;
  !acc

let iter_neighbors g u f =
  for k = get_checked g.xadj u to get_checked g.xadj (u + 1) - 1 do
    f (get g.adjncy k) (get g.adjwgt k)
  done

let fold_neighbors g u ~init ~f =
  let acc = ref init in
  for k = get_checked g.xadj u to get_checked g.xadj (u + 1) - 1 do
    acc := f !acc (get g.adjncy k) (get g.adjwgt k)
  done;
  !acc

let neighbors g u =
  let base = get_checked g.xadj u in
  Array.init (degree g u) (fun i ->
      let k = base + i in
      (get g.adjncy k, get g.adjwgt k))

(* Binary search for v in u's sorted slice; returns the adjncy index. *)
let find_edge g u v =
  let lo = ref (get_checked g.xadj u) and hi = ref (get_checked g.xadj (u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = get g.adjncy mid in
    if w = v then found := mid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem_edge g u v = find_edge g u v >= 0

let edge_weight g u v =
  let k = find_edge g u v in
  if k < 0 then 0 else get g.adjwgt k

let iter_edges g f =
  for u = 0 to g.n - 1 do
    for k = get g.xadj u to get g.xadj (u + 1) - 1 do
      let v = get g.adjncy k in
      if u < v then f u v (get g.adjwgt k)
    done
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v w -> acc := f !acc u v w);
  !acc

let edges g = List.rev (fold_edges g ~init:[] ~f:(fun acc u v w -> (u, v, w) :: acc))

let max_degree g =
  let d = ref 0 in
  for u = 0 to g.n - 1 do
    if degree g u > !d then d := degree g u
  done;
  !d

let min_degree g =
  if g.n = 0 then 0
  else begin
    let d = ref max_int in
    for u = 0 to g.n - 1 do
      if degree g u < !d then d := degree g u
    done;
    !d
  end

let average_degree g = if g.n = 0 then 0. else 2. *. float_of_int g.m /. float_of_int g.n

let is_regular g =
  g.n = 0
  ||
  let d = degree g 0 in
  let rec loop u = u >= g.n || (degree g u = d && loop (u + 1)) in
  loop 1

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for u = 0 to g.n - 1 do
    let d = degree g u in
    Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d))
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let ia_all_one (a : ia) =
  let ok = ref true in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    if get a i <> 1 then ok := false
  done;
  !ok

let is_unit_weighted g = ia_all_one g.vwgt && ia_all_one g.adjwgt

let ia_equal (a : ia) (b : ia) =
  Bigarray.Array1.dim a = Bigarray.Array1.dim b
  &&
  let ok = ref true in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    if get a i <> get b i then ok := false
  done;
  !ok

let equal a b =
  a.n = b.n && ia_equal a.xadj b.xadj && ia_equal a.adjncy b.adjncy
  && ia_equal a.adjwgt b.adjwgt && ia_equal a.vwgt b.vwgt

let check g =
  let fail fmt = Printf.ksprintf failwith fmt in
  if Bigarray.Array1.dim g.xadj <> g.n + 1 then fail "xadj length";
  if get g.xadj 0 <> 0 then fail "xadj.(0) <> 0";
  if get g.xadj g.n <> Bigarray.Array1.dim g.adjncy then fail "xadj end";
  if Bigarray.Array1.dim g.adjwgt <> Bigarray.Array1.dim g.adjncy then fail "adjwgt length";
  if Bigarray.Array1.dim g.vwgt <> g.n then fail "vwgt length";
  for u = 0 to g.n - 1 do
    if get g.xadj u > get g.xadj (u + 1) then fail "xadj not monotone at %d" u;
    for k = get g.xadj u to get g.xadj (u + 1) - 1 do
      let v = get g.adjncy k in
      if v < 0 || v >= g.n then fail "neighbour %d of %d out of range" v u;
      if v = u then fail "self-loop at %d" u;
      if k > get g.xadj u && get g.adjncy (k - 1) >= v then
        fail "adjacency of %d not strictly sorted" u;
      if get g.adjwgt k <= 0 then fail "non-positive edge weight at %d-%d" u v;
      if edge_weight g v u <> get g.adjwgt k then fail "asymmetric edge %d-%d" u v
    done
  done;
  let tvw = ref 0 in
  for u = 0 to g.n - 1 do
    if get g.vwgt u <= 0 then fail "non-positive vertex weight";
    tvw := !tvw + get g.vwgt u
  done;
  if !tvw <> g.total_vertex_weight then fail "total vertex weight";
  let tew = ref 0 in
  iter_edges g (fun _ _ w -> tew := !tew + w);
  if !tew <> g.total_edge_weight then fail "total edge weight";
  if 2 * g.m <> Bigarray.Array1.dim g.adjncy then fail "edge count"

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* Slice entries are packed (v lsl 31) lor w into plain ints during the
   build: v < 2^31 and 0 < w < 2^31 both hold after validation, so the
   packed value fits a 63-bit OCaml int and sorting packed values sorts
   by neighbour id first. *)
let pack v w = (v lsl 31) lor w
let unpack_v p = p lsr 31
let unpack_w p = p land 0x7FFFFFFF

(* Ascending sort of a.(lo..hi-1): insertion sort for short slices, a
   top-down merge sort above that. A merge copies the left run into
   [tmp] and merges it with the right run back into [a], so [tmp] must
   hold half the slice; [build] allocates one, half the longest slice. *)
let rec sort_range (a : int array) tmp lo hi =
  let len = hi - lo in
  if len <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = lo + (len / 2) in
    sort_range a tmp lo mid;
    sort_range a tmp mid hi;
    if a.(mid - 1) > a.(mid) then begin
      let nl = mid - lo in
      Array.blit a lo tmp 0 nl;
      let i = ref 0 and j = ref mid and k = ref lo in
      while !i < nl && !j < hi do
        if tmp.(!i) <= a.(!j) then begin
          a.(!k) <- tmp.(!i);
          incr i
        end
        else begin
          a.(!k) <- a.(!j);
          incr j
        end;
        incr k
      done;
      (* What is left of the right run is already in place. *)
      Array.blit tmp !i a !k (nl - !i)
    end
  end

(* The one real constructor. [src]/[dst] give the endpoints of [len]
   edges; [weight k] their weights. Endpoints and weights are validated
   up front (error messages carry [what], the public entry point's
   name), then the adjacency is built with counting sort, per-slice
   packed sort, and an in-place duplicate merge — no intermediate boxed
   tuples or hash tables, O(len) words of transient int arrays. *)
let build ~what ?vertex_weights ~n ~len src dst weight =
  if n < 0 then invalid_arg (what ^ ": negative n");
  validate_scale ~n ~m:len;
  let vwgt = ia_create n in
  (match vertex_weights with
  | None ->
      for u = 0 to n - 1 do
        set vwgt u 1
      done
  | Some w ->
      if Array.length w <> n then invalid_arg (what ^ ": vertex_weights length");
      for u = 0 to n - 1 do
        if w.(u) <= 0 then invalid_arg (what ^ ": non-positive vertex weight");
        if w.(u) > max_weight then invalid_arg (what ^ ": vertex weight out of range");
        set vwgt u w.(u)
      done);
  for k = 0 to len - 1 do
    let u = src.(k) and v = dst.(k) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg (what ^ ": endpoint out of range");
    if u = v then invalid_arg (what ^ ": self-loop");
    let w = weight k in
    if w <= 0 then invalid_arg (what ^ ": non-positive edge weight");
    if w > max_weight then invalid_arg (what ^ ": edge weight out of range")
  done;
  (* Counting sort of both edge directions into per-vertex slices. *)
  let start = Array.make (n + 1) 0 in
  for k = 0 to len - 1 do
    start.(src.(k)) <- start.(src.(k)) + 1;
    start.(dst.(k)) <- start.(dst.(k)) + 1
  done;
  let acc = ref 0 in
  for u = 0 to n - 1 do
    let d = start.(u) in
    start.(u) <- !acc;
    acc := !acc + d
  done;
  start.(n) <- !acc;
  let tot = !acc in
  let packed = Array.make (max 1 tot) 0 in
  let fill = Array.copy start in
  for k = 0 to len - 1 do
    let u = src.(k) and v = dst.(k) in
    let w = weight k in
    packed.(fill.(u)) <- pack v w;
    fill.(u) <- fill.(u) + 1;
    packed.(fill.(v)) <- pack u w;
    fill.(v) <- fill.(v) + 1
  done;
  (* Sort each slice, then merge parallel edges in place (summing
     weights); [write] trails the read cursor so this is one pass. *)
  let longest = ref 0 in
  for u = 0 to n - 1 do
    longest := max !longest (start.(u + 1) - start.(u))
  done;
  let tmp = Array.make (if !longest > 16 then !longest / 2 else 0) 0 in
  let xadj = ia_create (n + 1) in
  set xadj 0 0;
  let write = ref 0 in
  let total_edge_weight = ref 0 in
  for u = 0 to n - 1 do
    sort_range packed tmp start.(u) start.(u + 1);
    let k = ref start.(u) in
    while !k < start.(u + 1) do
      let v = unpack_v packed.(!k) in
      let w = ref 0 in
      while !k < start.(u + 1) && unpack_v packed.(!k) = v do
        w := !w + unpack_w packed.(!k);
        incr k
      done;
      if !w > max_weight then invalid_arg (what ^ ": merged edge weight out of range");
      packed.(!write) <- pack v !w;
      incr write;
      if u < v then total_edge_weight := !total_edge_weight + !w
    done;
    set xadj (u + 1) !write
  done;
  let tot2 = !write in
  let adjncy = ia_create tot2 and adjwgt = ia_create tot2 in
  for k = 0 to tot2 - 1 do
    set adjncy k (unpack_v packed.(k));
    set adjwgt k (unpack_w packed.(k))
  done;
  let total_vertex_weight = ref 0 in
  for u = 0 to n - 1 do
    total_vertex_weight := !total_vertex_weight + get vwgt u
  done;
  {
    n;
    xadj;
    adjncy;
    adjwgt;
    vwgt;
    m = tot2 / 2;
    total_edge_weight = !total_edge_weight;
    total_vertex_weight = !total_vertex_weight;
  }

let of_edge_arrays ?vertex_weights ?edge_weights ~n ?len src dst =
  let len =
    match len with
    | Some l ->
        if l < 0 || l > Array.length src || l > Array.length dst then
          invalid_arg "Csr.of_edge_arrays: len out of range";
        l
    | None ->
        if Array.length src <> Array.length dst then
          invalid_arg "Csr.of_edge_arrays: src/dst length mismatch";
        Array.length src
  in
  let weight =
    match edge_weights with
    | None -> fun _ -> 1
    | Some w ->
        if Array.length w < len then invalid_arg "Csr.of_edge_arrays: edge_weights length";
        fun k -> w.(k)
  in
  build ~what:"Csr.of_edges" ?vertex_weights ~n ~len src dst weight

let of_edges ?vertex_weights ~n edge_list =
  let len = List.length edge_list in
  let src = Array.make (max 1 len) 0
  and dst = Array.make (max 1 len) 0
  and wgt = Array.make (max 1 len) 0 in
  List.iteri
    (fun k (u, v, w) ->
      src.(k) <- u;
      dst.(k) <- v;
      wgt.(k) <- w)
    edge_list;
  build ~what:"Csr.of_edges" ?vertex_weights ~n ~len src dst (fun k -> wgt.(k))

let of_unweighted_edges ~n edge_list =
  let len = List.length edge_list in
  let src = Array.make (max 1 len) 0 and dst = Array.make (max 1 len) 0 in
  List.iteri
    (fun k (u, v) ->
      src.(k) <- u;
      dst.(k) <- v)
    edge_list;
  build ~what:"Csr.of_edges" ~n ~len src dst (fun _ -> 1)

let empty n = build ~what:"Csr.of_edges" ~n ~len:0 [||] [||] (fun _ -> 1)

let pp fmt g =
  (* lint: allow no-float-format — display-only pretty-printer *)
  Format.fprintf fmt "graph: %d vertices, %d edges, avg degree %.2f%s" g.n g.m
    (average_degree g)
    (if is_unit_weighted g then "" else " (weighted)")
