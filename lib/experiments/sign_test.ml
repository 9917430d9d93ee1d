type t = {
  wins_a : int;
  wins_b : int;
  ties : int;
  win_rate_a : float;
  p_value : float;
}

(* log(n choose k) via the log-factorial recurrence (n small here).
   Stateless on purpose: a memo table here would be shared mutable
   state reachable from pool domains. *)
let rec log_factorial n =
  if n <= 1 then 0. else log_factorial (n - 1) +. log (float_of_int n)

let binomial_pmf ~n ~k =
  exp
    (log_factorial n -. log_factorial k -. log_factorial (n - k)
    -. (float_of_int n *. log 2.))

let binomial_two_sided ~n ~k =
  if n = 0 then 1.0
  else begin
    let tail_low = ref 0. and tail_high = ref 0. in
    for i = 0 to k do
      tail_low := !tail_low +. binomial_pmf ~n ~k:i
    done;
    for i = k to n do
      tail_high := !tail_high +. binomial_pmf ~n ~k:i
    done;
    Float.min 1.0 (2. *. Float.min !tail_low !tail_high)
  end

let of_pairs pairs =
  let wins_a = ref 0 and wins_b = ref 0 and ties = ref 0 in
  List.iter
    (fun (a, b) -> if a < b then incr wins_a else if b < a then incr wins_b else incr ties)
    pairs;
  let decisive = !wins_a + !wins_b in
  {
    wins_a = !wins_a;
    wins_b = !wins_b;
    ties = !ties;
    win_rate_a =
      (if decisive = 0 then 0.5 else float_of_int !wins_a /. float_of_int decisive);
    p_value = binomial_two_sided ~n:decisive ~k:!wins_a;
  }

let pp fmt t =
  (* lint: allow no-float-format — display-only pretty-printer for table cells *)
  Format.fprintf fmt "%d-%d (%d ties), win rate %.0f%%, sign-test p = %.3f" t.wins_a
    t.wins_b t.ties (100. *. t.win_rate_a) t.p_value

let obs4_sign_table profile =
  let two_n = Profile.scaled profile 2000 in
  let instances = max 10 (5 * profile.Profile.replicates) in
  let degrees = [ 2.5; 3.0; 3.5 ] in
  let cells =
    Cell.run profile ~tag:"signtest" Runner.quads
      (List.map
         (fun degree ->
           let params =
             Gb_models.Planted.params_for_average_degree ~two_n ~avg_degree:degree ~bis:16
           in
           {
             (* lint: allow no-float-format — degree is a literal constant; %g renders it identically on every run *)
             Cell.label = Printf.sprintf "deg%g" degree;
             replicates = instances;
             (* lint: allow no-float-format — degree is a literal constant; %g renders it identically on every run *)
             seed = Cell.seed profile "signtest" (Printf.sprintf "%g" degree);
             compute =
               (fun rng -> Runner.paper_quad profile rng (Gb_models.Planted.generate rng params));
           })
         degrees)
  in
  let row degree quads =
    let pairs versus = of_pairs (List.map versus quads) in
    let open Runner in
    [
      (* lint: allow no-float-format — display-only row label built from a literal degree *)
      Printf.sprintf "avg deg %g" degree;
      Format.asprintf "%a" pp (pairs (fun q -> (q.bkl.cut, q.bsa.cut)));
      Format.asprintf "%a" pp (pairs (fun q -> (q.bckl.cut, q.bcsa.cut)));
    ]
  in
  Table.render
    ~title:
      (Printf.sprintf
         "Observation 4 sign test (E-O4b): KL vs SA paired wins, %d graphs per row (2n=%d)"
         instances two_n)
    ~notes:
      [
        "paper: at degree 2.5-3.5, 'KL had the better bisection sixty percent of the";
        "time'; with compaction 'no big difference in the quality of the solutions'";
      ]
    ~header:[ "instance"; "KL vs SA (wins-losses)"; "CKL vs CSA" ]
    (List.map2 row degrees cells)
