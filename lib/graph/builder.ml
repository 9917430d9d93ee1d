(* Growable edge buffers instead of a tuple-keyed hash table: at
   million-edge scale the boxed ((int * int), int) bindings of the old
   representation dwarfed the graph itself. Edges are appended to three
   parallel int arrays (amortised O(1), no per-edge boxing) and parallel
   edges are merged later by the canonical CSR build.

   The membership index needed by [mem_edge]/[add_edge_if_absent] is
   materialised lazily on first use: streaming ingestion ([add_edge]
   only) never pays for it. Keys pack both endpoints into one int, so
   the index holds unboxed ints only. *)

type t = {
  n : int;
  mutable src : int array;
  mutable dst : int array;
  mutable wgt : int array;
  mutable len : int; (* appended (not necessarily distinct) edges *)
  mutable index : (int, unit) Hashtbl.t option; (* distinct-edge keys; lazy *)
}

let create ?(expected_edges = 64) n =
  if n < 0 then invalid_arg "Builder.create";
  Csr.validate_scale ~n ~m:0;
  let cap = max 16 expected_edges in
  {
    n;
    src = Array.make cap 0;
    dst = Array.make cap 0;
    wgt = Array.make cap 0;
    len = 0;
    index = None;
  }

(* Endpoints fit in 31 bits (Csr.max_vertices), so the pair packs into
   one non-negative int. *)
let key u v = if u < v then (u lsl 31) lor v else (v lsl 31) lor u

let ensure_index b =
  match b.index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create (2 * max 16 b.len) in
      for k = 0 to b.len - 1 do
        Hashtbl.replace idx (key b.src.(k) b.dst.(k)) ()
      done;
      b.index <- Some idx;
      idx

let check_endpoints b u v =
  if u < 0 || u >= b.n || v < 0 || v >= b.n then
    invalid_arg "Builder: endpoint out of range"

let grow b =
  let cap = Array.length b.src in
  let cap' = 2 * cap in
  let extend a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.src <- extend b.src;
  b.dst <- extend b.dst;
  b.wgt <- extend b.wgt

let append b u v w =
  if b.len >= Csr.max_edges then
    failwith
      (Printf.sprintf "graph too large: %d edges (max %d)" (b.len + 1) Csr.max_edges);
  if b.len = Array.length b.src then grow b;
  b.src.(b.len) <- u;
  b.dst.(b.len) <- v;
  b.wgt.(b.len) <- w;
  b.len <- b.len + 1;
  match b.index with Some idx -> Hashtbl.replace idx (key u v) () | None -> ()

let add_edge ?(weight = 1) b u v =
  check_endpoints b u v;
  if u = v then invalid_arg "Builder.add_edge: self-loop";
  if weight <= 0 then invalid_arg "Builder.add_edge: non-positive weight";
  append b u v weight

let add_edge_if_absent b u v =
  check_endpoints b u v;
  if u = v then false
  else begin
    let idx = ensure_index b in
    if Hashtbl.mem idx (key u v) then false
    else begin
      append b u v 1;
      true
    end
  end

let mem_edge b u v =
  check_endpoints b u v;
  u <> v && Hashtbl.mem (ensure_index b) (key u v)

let build b =
  Csr.of_edge_arrays ~edge_weights:b.wgt ~n:b.n ~len:b.len b.src b.dst
