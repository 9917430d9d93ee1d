module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr

(* Enumerate the C(n,2) vertex pairs in lexicographic order and jump
   between selected ones with geometric skips: the index of the next
   present edge is current + 1 + Geometric(p). *)
let edge_arrays rng ~n ~p =
  if n < 0 then invalid_arg "Gnp.generate: negative n";
  if not (p >= 0. && p <= 1.) then invalid_arg "Gnp.generate: p out of [0,1]";
  if p = 0. || n < 2 then ([||], [||], 0)
  else begin
    (* Growable unboxed endpoint arrays: the boxed (u, v, 1) list of the
       old path tripled the resident size of multi-million-edge draws. *)
    let cap0 =
      let est = p *. float_of_int n *. float_of_int (n - 1) /. 2. in
      max 1024 (min 16_777_216 (int_of_float (1.1 *. est) + 16))
    in
    let esrc = ref (Array.make cap0 0) and edst = ref (Array.make cap0 0) in
    let len = ref 0 in
    let push u v =
      if !len = Array.length !esrc then begin
        let grow a =
          let a' = Array.make (2 * Array.length a) 0 in
          Array.blit a 0 a' 0 !len;
          a'
        in
        esrc := grow !esrc;
        edst := grow !edst
      end;
      !esrc.(!len) <- u;
      !edst.(!len) <- v;
      incr len
    in
    (* Walk row by row: for row u the candidate pairs are (u, u+1..n-1). *)
    let u = ref 0 and offset = ref 0 in
    (* (u, u+1+offset) is the next candidate pair. *)
    let advance skip =
      let s = ref skip in
      while !u < n - 1 && !s >= 0 do
        let row_len = n - 1 - !u in
        if !offset + !s < row_len then begin
          offset := !offset + !s;
          s := -1 (* landed *)
        end
        else begin
          s := !s - (row_len - !offset);
          incr u;
          offset := 0
        end
      done
    in
    advance (Rng.geometric_skip rng p);
    while !u < n - 1 do
      push !u (!u + 1 + !offset);
      advance (1 + Rng.geometric_skip rng p)
    done;
    (!esrc, !edst, !len)
  end

let generate rng ~n ~p =
  let src, dst, len = edge_arrays rng ~n ~p in
  Csr.of_edge_arrays ~n ~len src dst

let p_for_average_degree ~n ~avg_degree =
  if n < 2 then invalid_arg "Gnp.p_for_average_degree: n < 2";
  avg_degree /. float_of_int (n - 1)

let with_average_degree rng ~n ~avg_degree =
  let p = p_for_average_degree ~n ~avg_degree in
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Gnp.with_average_degree: implied p out of [0,1]";
  generate rng ~n ~p
