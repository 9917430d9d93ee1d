module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr

type params = { two_n : int; p_a : float; p_b : float; bis : int }

let validate { two_n; p_a; p_b; bis } =
  if two_n < 2 || two_n mod 2 <> 0 then invalid_arg "Planted: two_n must be even, >= 2";
  if not (p_a >= 0. && p_a <= 1. && p_b >= 0. && p_b <= 1.) then
    invalid_arg "Planted: probabilities out of [0,1]";
  let n = two_n / 2 in
  if bis < 0 || bis > n * n then invalid_arg "Planted: bis out of range"

(* [bis] distinct cross pairs (a, b), each packed as a * n + b. Where
   n^2 <= 2^30, the largest bound [Rng.int] takes, they are a sample
   of [0, n^2); beyond it, each pair is two endpoints, a then b,
   redrawn while the pair is taken. *)
let cross_pairs rng ~n ~bis =
  if n * n <= Gb_prng.Lfg.modulus then Rng.sample_without_replacement rng ~k:bis ~n:(n * n)
  else begin
    let taken = Hashtbl.create (2 * bis) in
    let out = Array.make bis 0 in
    for k = 0 to bis - 1 do
      let idx = ref (-1) in
      while !idx < 0 || Hashtbl.mem taken !idx do
        let a = Rng.int rng n in
        idx := (a * n) + Rng.int rng n
      done;
      Hashtbl.add taken !idx ();
      out.(k) <- !idx
    done;
    out
  end

let generate rng params =
  validate params;
  let n = params.two_n / 2 in
  (* Within-side edges from the Gnp sampler, B's relabelled by n, then
     exactly bis distinct cross pairs. *)
  let ua, va, la = Gnp.edge_arrays rng ~n ~p:params.p_a in
  let ub, vb, lb = Gnp.edge_arrays rng ~n ~p:params.p_b in
  let cross = cross_pairs rng ~n ~bis:params.bis in
  let m = la + lb + params.bis in
  let src = Array.make m 0 and dst = Array.make m 0 in
  Array.blit ua 0 src 0 la;
  Array.blit va 0 dst 0 la;
  for k = 0 to lb - 1 do
    src.(la + k) <- n + ub.(k);
    dst.(la + k) <- n + vb.(k)
  done;
  Array.iteri
    (fun k idx ->
      src.(la + lb + k) <- idx / n;
      dst.(la + lb + k) <- n + (idx mod n))
    cross;
  Csr.of_edge_arrays ~n:params.two_n src dst

let planted_sides params =
  let n = params.two_n / 2 in
  Array.init params.two_n (fun v -> if v < n then 0 else 1)

let params_for_average_degree ~two_n ~avg_degree ~bis =
  if two_n < 4 || two_n mod 2 <> 0 then
    invalid_arg "Planted.params_for_average_degree: two_n";
  let n = two_n / 2 in
  (* avg_degree = (n - 1) p + bis / n  for symmetric p. *)
  let p = (avg_degree -. (float_of_int bis /. float_of_int n)) /. float_of_int (n - 1) in
  if not (p >= 0. && p <= 1.) then
    invalid_arg "Planted.params_for_average_degree: infeasible";
  { two_n; p_a = p; p_b = p; bis }
