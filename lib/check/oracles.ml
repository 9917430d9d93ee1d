module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Gio = Gb_graph.Gio
module Matching = Gb_graph.Matching
module Contraction = Gb_graph.Contraction
module Traverse = Gb_graph.Traverse
module Bisection = Gb_partition.Bisection
module Initial = Gb_partition.Initial
module Exact = Gb_partition.Exact
module Tree_exact = Gb_partition.Tree_exact
module Spectral = Gb_partition.Spectral
module Cycles = Gb_partition.Cycles
module Kl = Gb_kl.Kl
module Fm = Gb_kl.Fm
module Gain_buckets = Gb_kl.Gain_buckets
module Schedule = Gb_anneal.Schedule
module Sa_bisect = Gb_anneal.Sa_bisect
module Threshold = Gb_anneal.Threshold
module Compaction = Gb_compaction.Compaction
module Xsa = Gb_race.Xsa
module Algo = Gb_algo.Algo
module Json = Gb_obs.Json
module Telemetry = Gb_obs.Telemetry
module Store = Gb_store.Store
module Serve_protocol = Gb_serve.Protocol
module Lint = Gb_lint.Lint
module Lint_rules = Gb_lint.Rules

type t = {
  name : string;
  applies : Csr.t -> bool;
  check : Rng.t -> Csr.t -> (unit, string) result;
}

let errf fmt = Printf.ksprintf (fun s -> Error s) fmt

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* [require cond fmt ...] is [Ok ()] when the condition holds and only
   renders the message when it does not. *)
let require cond fmt =
  if cond then Printf.ikfprintf (fun () -> Ok ()) () fmt
  else Printf.ksprintf (fun s -> Error s) fmt

(* Largest vertex count on which we invoke the exact branch-and-bound
   oracle (the ISSUE's "heuristics never beat Exact on graphs <= 16"). *)
let exact_limit = 16

(* Cheap schedules so the SA-family oracles stay fast on a 500-case
   fuzz run; quality does not matter here, only the invariants. *)
let quick_sa = { Sa_bisect.default_config with schedule = Schedule.quick }

let quick_threshold =
  {
    Threshold.default_schedule with
    Threshold.size_factor = 4;
    frozen_after = 3;
    max_levels = 60;
  }

let quick_xsa =
  { Xsa.default_config with Xsa.chains = 3; rounds = 4; sweeps_per_round = 1 }

(* {1 The runner hook: re-validate a packaged bisection} *)

let verify_run g b =
  match Bisection.validate_sides g (Bisection.sides b) with
  | exception Invalid_argument msg -> errf "invalid side array: %s" msg
  | () ->
      let sides = Bisection.sides b in
      let cut = Bisection.compute_cut g sides in
      let counts = Bisection.side_counts sides in
      let weights = Bisection.side_weights g sides in
      let* () =
        require
          (cut = Bisection.cut b)
          "cached cut %d but naive recompute gives %d" (Bisection.cut b) cut
      in
      let* () =
        require
          (counts = Bisection.counts b)
          "cached counts (%d,%d) but recount gives (%d,%d)"
          (fst (Bisection.counts b))
          (snd (Bisection.counts b))
          (fst counts) (snd counts)
      in
      let* () =
        require
          (weights = Bisection.weights b)
          "cached weights (%d,%d) but recompute gives (%d,%d)"
          (fst (Bisection.weights b))
          (snd (Bisection.weights b))
          (fst weights) (snd weights)
      in
      require
        (Bisection.is_balanced b = Bisection.is_count_balanced sides)
        "balance flag disagrees with side counts (%d,%d)" (fst counts) (snd counts)

(* {1 Solver oracles} *)

(* Every end-to-end solver, with the final cut it reports in its own
   stats (when it reports one) so the differential "reported vs naive
   recompute" comparison catches stale accounting: the whole registry,
   plus the two solvers only the tables use. *)
let solvers : (string * (Rng.t -> Csr.t -> Bisection.t * int option)) list =
  List.map
    (fun (e : Algo.entry) ->
      ( e.id,
        fun rng g ->
          let o = e.run ~sa:quick_sa ~xsa:quick_xsa rng g in
          (o.bisection, o.final_cut) ))
    Algo.all
  @ [
      ( "threshold",
        fun rng g ->
          let b, _ = Threshold.run ~schedule:quick_threshold rng g in
          (b, None) );
      ("spectral", fun _rng g -> (Spectral.bisect g, None));
    ]

let solver_cut rng g =
  let exact =
    if Csr.n_vertices g <= exact_limit then
      Some (Exact.bisection_width ~limit:exact_limit g)
    else None
  in
  List.fold_left
    (fun acc (name, solve) ->
      let* () = acc in
      let b, reported = solve rng g in
      match verify_run g b with
      | Error e -> errf "%s: %s" name e
      | Ok () ->
          let cut = Bisection.cut b in
          let* () = require (Bisection.is_balanced b) "%s: unbalanced result" name in
          let* () =
            match reported with
            | Some r when r <> cut ->
                errf "%s: stats report final cut %d but naive recompute gives %d" name
                  r cut
            | _ -> Ok ()
          in
          (match exact with
          | Some w when cut < w ->
              errf "%s: cut %d beats the exact optimum %d" name cut w
          | _ -> Ok ()))
    (Ok ()) solvers

let exact_witness _rng g =
  let w = Exact.bisection_width ~limit:exact_limit g in
  let b = Exact.best_bisection ~limit:exact_limit g in
  let* () = match verify_run g b with Ok () -> Ok () | Error e -> errf "witness: %s" e in
  let* () = require (Bisection.is_balanced b) "witness is unbalanced" in
  require
    (Bisection.cut b = w)
    "best_bisection cut %d but bisection_width says %d" (Bisection.cut b) w

let is_forest g =
  let _, c = Traverse.components g in
  Csr.n_edges g = Csr.n_vertices g - c

let tree_exact_oracle _rng g =
  let w = Tree_exact.bisection_width g in
  let b = Tree_exact.best_bisection g in
  let* () =
    match verify_run g b with Ok () -> Ok () | Error e -> errf "tree witness: %s" e
  in
  let* () = require (Bisection.is_balanced b) "tree witness is unbalanced" in
  let* () =
    require
      (Bisection.cut b = w)
      "tree best_bisection cut %d but width says %d" (Bisection.cut b) w
  in
  if Csr.n_vertices g <= exact_limit then
    let we = Exact.bisection_width ~limit:exact_limit g in
    require (w = we) "tree DP width %d but branch-and-bound says %d" w we
  else Ok ()

let cycles_oracle _rng g =
  let w = Cycles.bisection_width g in
  let b = Cycles.best_bisection g in
  let* () =
    match verify_run g b with Ok () -> Ok () | Error e -> errf "cycle witness: %s" e
  in
  let* () = require (Bisection.is_balanced b) "cycle witness is unbalanced" in
  let* () =
    require
      (Bisection.cut b = w)
      "cycle best_bisection cut %d but width says %d" (Bisection.cut b) w
  in
  if Csr.n_vertices g <= exact_limit then
    let we = Exact.bisection_width ~limit:exact_limit g in
    require (w = we) "cycle DP width %d but branch-and-bound says %d" w we
  else Ok ()

(* {1 Gain accounting} *)

(* One pass must (a) leave its input untouched, (b) return a
   non-negative gain, (c) return an assignment whose from-scratch cut
   is exactly the input cut minus that gain, (d) stay count-balanced. *)
let check_one_pass label pass g side =
  let before = Array.copy side in
  let cut0 = Bisection.compute_cut g side in
  let side', gain = pass g side in
  let* () = require (side = before) "%s mutated its input assignment" label in
  let* () = require (gain >= 0) "%s returned negative gain %d" label gain in
  let* () =
    match Bisection.validate_sides g side' with
    | exception Invalid_argument msg -> errf "%s returned invalid sides: %s" label msg
    | () -> Ok ()
  in
  let* () =
    require
      (Bisection.is_count_balanced side')
      "%s returned an unbalanced assignment" label
  in
  let cut1 = Bisection.compute_cut g side' in
  require (cut1 = cut0 - gain)
    "%s: claimed gain %d but cut went %d -> %d (delta %d)" label gain cut0 cut1
    (cut0 - cut1)

let check_refine label (refine : Csr.t -> int array -> int array * (int * int * int list))
    g side =
  let cut0 = Bisection.compute_cut g side in
  let side', (passes, initial_cut, pass_gains) = refine g side in
  let* () = require (initial_cut = cut0) "%s: stats initial_cut %d but start cut %d" label initial_cut cut0 in
  let final = Bisection.compute_cut g side' in
  let claimed = List.fold_left ( + ) 0 pass_gains in
  let* () =
    require (cut0 - final = claimed)
      "%s: pass gains sum to %d but the cut dropped %d -> %d" label claimed cut0 final
  in
  let* () =
    require
      (List.for_all (fun gn -> gn >= 0) pass_gains)
      "%s: a pass reported negative gain" label
  in
  require
    (passes = List.length pass_gains)
    "%s: %d passes but %d recorded pass gains" label passes (List.length pass_gains)

let kl_accounting rng g =
  let side = Initial.random rng g in
  let* () = check_one_pass "Kl.one_pass" Kl.one_pass g side in
  let* () = check_one_pass "Kl.Reference.one_pass" Kl.Reference.one_pass g side in
  (* The fast tandem-bucket scan and the quadratic Figure-2 reference
     break gain ties differently, so from the same start they follow
     different swap trajectories and may extract different (both valid)
     pass gains — only the accounting identities above are laws. *)
  check_refine "Kl.refine"
    (fun g s ->
      let s', st = Kl.refine g s in
      (s', (st.Kl.passes, st.Kl.initial_cut, st.Kl.pass_gains)))
    g side

let fm_accounting rng g =
  let side = Initial.random rng g in
  let* () = check_one_pass "Fm.one_pass" (fun g s -> Fm.one_pass g s) g side in
  check_refine "Fm.refine"
    (fun g s ->
      let s', st = Fm.refine g s in
      (s', (st.Fm.passes, st.Fm.initial_cut, st.Fm.pass_gains)))
    g side

(* {1 Compaction} *)

let compaction_projection rng g =
  let m = Matching.random_maximal rng g in
  let c = Contraction.contract g m in
  let coarse = c.Contraction.coarse in
  (* Fundamental correspondence: any coarse assignment, pulled back to
     the fine graph, has exactly the coarse cut. *)
  let cside = Initial.random rng coarse in
  let coarse_cut = Bisection.compute_cut coarse cside in
  let fine_side = Contraction.project_to_fine c cside in
  let fine_cut = Bisection.compute_cut g fine_side in
  let* () =
    require (fine_cut = coarse_cut)
      "projection changed the cut: coarse %d, projected fine %d" coarse_cut fine_cut
  in
  let repaired = Bisection.rebalance g fine_side in
  let* () =
    match Bisection.validate_sides g repaired with
    | exception Invalid_argument msg -> errf "rebalance broke validity: %s" msg
    | () -> Ok ()
  in
  let* () =
    require
      (Bisection.is_count_balanced repaired)
      "rebalance left counts unbalanced"
  in
  (* End-to-end: with a KL refiner (never worsens its start), the final
     cut cannot exceed the projected warm-start cut. *)
  let b, stats = Compaction.bisect ~refiner:(Compaction.kl_refiner ()) rng g in
  let* () =
    match verify_run g b with Ok () -> Ok () | Error e -> errf "ckl result: %s" e
  in
  let* () =
    require
      (stats.Compaction.final_cut = Bisection.cut b)
      "compaction stats final_cut %d but result cut %d" stats.Compaction.final_cut
      (Bisection.cut b)
  in
  require
    (stats.Compaction.final_cut <= stats.Compaction.projected_cut)
    "KL refinement worsened the projected start: projected %d, final %d"
    stats.Compaction.projected_cut stats.Compaction.final_cut

(* The same correspondence checked at every level of a deep V-cycle:
   [min_vertices = 2] forces the full hierarchy even on the miniature
   corpus graphs, and the observer sees each uncoarsening step — the
   projected fine cut must equal the coarse cut exactly, and every
   rebalanced start must be count-balanced before refinement. *)
let multilevel_projection rng g =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let seen = ref 0 in
  let observer ~level ~fine ~coarse ~coarse_side ~projected ~rebalanced =
    incr seen;
    let coarse_cut = Bisection.compute_cut coarse coarse_side in
    let fine_cut = Bisection.compute_cut fine projected in
    if fine_cut <> coarse_cut then
      fail "level %d: coarse cut %d but projected fine cut %d" level coarse_cut fine_cut;
    (match Bisection.validate_sides fine rebalanced with
    | exception Invalid_argument msg -> fail "level %d: rebalanced start invalid: %s" level msg
    | () ->
        if not (Bisection.is_count_balanced rebalanced) then
          fail "level %d: rebalanced start is not count-balanced" level)
  in
  let b, stats =
    Compaction.recursive ~min_vertices:2 ~observer
      ~refiner:(Compaction.fm_refiner ()) rng g
  in
  let* () =
    match List.rev !failures with [] -> Ok () | msgs -> errf "%s" (String.concat "; " msgs)
  in
  let* () =
    require
      (!seen = stats.Compaction.levels - 1)
      "observer saw %d uncoarsenings but stats report %d levels" !seen
      stats.Compaction.levels
  in
  match verify_run g b with Ok () -> Ok () | Error e -> errf "mlfm result: %s" e

(* {1 Replica exchange (xsa)} *)

(* Law (PARALLELISM.md): an xsa run — every chain's accepted-move
   trajectory, every swap decision, and the returned bisection — is a
   pure function of the caller's stream. Two runs from equal substreams
   of one derived base must agree byte-for-byte (this is what makes the
   [--jobs] fan-out sound: chain k draws only from its own substream,
   and the swap schedule only from its own). The result itself is
   re-validated against the naive recompute, and on exact-oracle-sized
   graphs it must not beat branch-and-bound. *)
let replica_exchange rng g =
  let base = Rng.derive_seed rng in
  let observe () =
    let b, s = Xsa.run ~config:quick_xsa ~record:true (Rng.substream ~base 0) g in
    ( Bisection.cut b,
      Array.to_list (Bisection.sides b),
      s.Xsa.attempted,
      s.Xsa.accepted,
      s.Xsa.swaps_attempted,
      s.Xsa.swaps_accepted,
      s.Xsa.best_chain,
      Array.to_list (Array.map Array.to_list s.Xsa.trajectories),
      b )
  in
  let c1, sides1, att1, acc1, sw1, swa1, bc1, traj1, b1 = observe () in
  let c2, sides2, att2, acc2, sw2, swa2, bc2, traj2, _ = observe () in
  let* () =
    require
      ((c1, sides1, att1, acc1, sw1, swa1, bc1) = (c2, sides2, att2, acc2, sw2, swa2, bc2))
      "two xsa runs from equal substreams disagree (cut %d vs %d, best chain %d vs %d)"
      c1 c2 bc1 bc2
  in
  let* () =
    require (traj1 = traj2)
      "chain trajectories are not a pure function of the derived seed"
  in
  let* () =
    require
      (List.length traj1 = quick_xsa.Xsa.chains)
      "expected %d recorded trajectories, got %d" quick_xsa.Xsa.chains
      (List.length traj1)
  in
  let* () =
    require
      (List.for_all (List.for_all (fun v -> v >= 0 && v < Csr.n_vertices g)) traj1)
      "a trajectory records an out-of-range vertex"
  in
  let* () = match verify_run g b1 with Ok () -> Ok () | Error e -> errf "xsa: %s" e in
  let* () = require (Bisection.is_balanced b1) "xsa: unbalanced result" in
  if Csr.n_vertices g <= exact_limit then
    let w = Exact.bisection_width ~limit:exact_limit g in
    require (c1 >= w) "xsa: cut %d beats the exact optimum %d" c1 w
  else Ok ()

(* {1 Matching} *)

let check_matching label g (m : Matching.t) =
  let* () = require (Matching.is_valid g m) "%s: invalid matching" label in
  let* () = require (Matching.is_maximal g m) "%s: matching not maximal" label in
  let* () =
    require
      (List.length m.Matching.pairs = Matching.size m)
      "%s: pairs/size mismatch" label
  in
  let seen = Array.make (Csr.n_vertices g) false in
  List.fold_left
    (fun acc (u, v) ->
      let* () = acc in
      let* () = require (u < v) "%s: pair (%d,%d) not normalised" label u v in
      let* () = require (Csr.mem_edge g u v) "%s: pair (%d,%d) is not an edge" label u v in
      let* () =
        require
          ((not seen.(u)) && not seen.(v))
          "%s: vertex reused across pairs at (%d,%d)" label u v
      in
      seen.(u) <- true;
      seen.(v) <- true;
      require
        (m.Matching.mate.(u) = v && m.Matching.mate.(v) = u)
        "%s: mate array disagrees with pair (%d,%d)" label u v)
    (Ok ()) m.Matching.pairs

let matching_oracle rng g =
  let* () = check_matching "random_maximal" g (Matching.random_maximal rng g) in
  check_matching "heavy_edge" g (Matching.heavy_edge rng g)

(* {1 Initial bisections} *)

let initial_balance rng g =
  List.fold_left
    (fun acc (label, side) ->
      let* () = acc in
      let* () =
        match Bisection.validate_sides g side with
        | exception Invalid_argument msg -> errf "Initial.%s invalid: %s" label msg
        | () -> Ok ()
      in
      require
        (Bisection.is_count_balanced side)
        "Initial.%s is not count-balanced" label)
    (Ok ())
    [
      ("random", Initial.random rng g);
      ("bfs_grow", Initial.bfs_grow rng g);
      ("dfs_stripe", Initial.dfs_stripe rng g);
      ("halves", Initial.halves g);
    ]

(* {1 Gain buckets vs a sorted-list model} *)

(* The model is the present vertices most-recent-first; a bucket queue
   with LIFO buckets must pop the most recent among the maxima, and
   [update] to the same gain must not change a vertex's position. *)
let gain_buckets_oracle rng g =
  let capacity = max 2 (Csr.n_vertices g) in
  let range = 8 in
  let t = Gain_buckets.create ~capacity ~range in
  let model = ref [] in
  let random_gain () = Rng.int rng ((2 * range) + 1) - range in
  let model_max () =
    List.fold_left
      (fun acc (_, gn) ->
        match acc with Some m when m >= gn -> acc | _ -> Some gn)
      None !model
  in
  let check_state step =
    let* () =
      require
        (Gain_buckets.cardinal t = List.length !model)
        "step %d: cardinal %d but model holds %d" step (Gain_buckets.cardinal t)
        (List.length !model)
    in
    let* () =
      match (Gain_buckets.max_gain t, model_max ()) with
      | Some a, Some b when a = b -> Ok ()
      | None, None -> Ok ()
      | a, b ->
          let s = function None -> "none" | Some x -> string_of_int x in
          errf "step %d: max_gain %s but model max %s" step (s a) (s b)
    in
    let probe = Rng.int rng capacity in
    let in_model = List.mem_assoc probe !model in
    let* () =
      require
        (Gain_buckets.mem t probe = in_model)
        "step %d: mem %d disagrees with model" step probe
    in
    if in_model then
      require
        (Gain_buckets.gain_of t probe = List.assoc probe !model)
        "step %d: gain_of %d disagrees with model" step probe
    else Ok ()
  in
  let steps = 120 + Rng.int rng 80 in
  let rec go step =
    if step >= steps then
      (* Drain through iter_desc: non-increasing gains, LIFO inside a
         bucket = stable sort of the recency-ordered model by gain. *)
      let visited = ref [] in
      let () =
        Gain_buckets.iter_desc t ~f:(fun v gn ->
            visited := (v, gn) :: !visited;
            `Continue)
      in
      let expected =
        List.stable_sort (fun (_, g1) (_, g2) -> Int.compare g2 g1) !model
      in
      require
        (List.rev !visited = expected)
        "iter_desc order disagrees with the sorted-list model"
    else
      let absent =
        List.filter (fun v -> not (List.mem_assoc v !model)) (List.init capacity Fun.id)
      in
      let op = Rng.int rng 10 in
      let* () =
        if op < 4 && absent <> [] then (
          let v = Rng.pick_list rng absent in
          let gn = random_gain () in
          Gain_buckets.insert t v gn;
          model := (v, gn) :: !model;
          Ok ())
        else if op < 6 && !model <> [] then (
          let v, _ = Rng.pick_list rng !model in
          Gain_buckets.remove t v;
          model := List.remove_assoc v !model;
          Ok ())
        else if op < 8 && !model <> [] then (
          let v, old = Rng.pick_list rng !model in
          let gn = random_gain () in
          Gain_buckets.update t v gn;
          (* Same gain: position is preserved; new gain: the vertex
             moves to the head of its bucket, i.e. becomes most
             recent. *)
          if gn <> old then model := (v, gn) :: List.remove_assoc v !model;
          Ok ())
        else
          match Gain_buckets.pop_max t with
          | None -> require (!model = []) "pop_max returned None on non-empty queue"
          | Some (v, gn) -> (
              match model_max () with
              | None -> errf "pop_max returned (%d,%d) on empty model" v gn
              | Some m ->
                  let expected_v =
                    fst (List.find (fun (_, gx) -> gx = m) !model)
                  in
                  let* () =
                    require (gn = m) "pop_max gain %d but model max %d" gn m
                  in
                  let* () =
                    require (v = expected_v)
                      "pop_max returned %d but LIFO model expects %d" v expected_v
                  in
                  model := List.remove_assoc v !model;
                  Ok ())
      in
      let* () = check_state step in
      go (step + 1)
  in
  go 0

(* {1 Codec round-trips} *)

let gen_string rng =
  let alphabet = [| 'a'; 'b'; 'z'; ' '; '"'; '\\'; '\n'; '\t'; '/'; '0' |] in
  String.init (Rng.int rng 9) (fun _ -> Rng.pick rng alphabet)

let gen_float rng =
  let f = Rng.float rng 2000.0 -. 1000.0 in
  (* Integer-valued floats legitimately parse back as Int (JSON has one
     number type); keep the generator off that boundary so structural
     equality is the right check. *)
  if Float.is_integer f then f +. 0.5 else f

let rec gen_json rng depth =
  let leaf () =
    match Rng.int rng 5 with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Rng.bool rng)
    | 2 -> Json.Int (Rng.int rng 2_000_001 - 1_000_000)
    | 3 -> Json.Float (gen_float rng)
    | _ -> Json.String (gen_string rng)
  in
  if depth = 0 then leaf ()
  else
    match Rng.int rng 7 with
    | 5 -> Json.List (List.init (Rng.int rng 4) (fun _ -> gen_json rng (depth - 1)))
    | 6 ->
        Json.Obj
          (List.init (Rng.int rng 4) (fun i ->
               (Printf.sprintf "k%d" i, gen_json rng (depth - 1))))
    | _ -> leaf ()

let gen_label rng =
  let alphabet = [| 'a'; 'b'; 'c'; 'k'; 'l'; '-'; '_'; '5' |] in
  String.init (1 + Rng.int rng 8) (fun _ -> Rng.pick rng alphabet)

let gen_record rng g : Telemetry.record =
  {
    Telemetry.algorithm = gen_label rng;
    graph = gen_label rng;
    profile = gen_label rng;
    seed = (if Rng.bool rng then Some (Rng.int rng 1_000_000) else None);
    start = Rng.int rng 8;
    cut = Csr.total_edge_weight g;
    seconds = Float.abs (gen_float rng);
    balanced = Rng.bool rng;
    trajectory = List.init (Rng.int rng 5) (fun _ -> (gen_label rng, gen_float rng));
    metrics =
      List.init (Rng.int rng 4) (fun i ->
          (Printf.sprintf "m%d" i, Json.Int (Rng.int rng 1000)));
  }

let codec_roundtrip rng g =
  let j = gen_json rng 3 in
  let s = Json.to_string j in
  let* () =
    match Json.of_string s with
    | j' when j' = j -> Ok ()
    | j' -> errf "json round-trip: %s reparsed as %s" s (Json.to_string j')
    | exception Failure msg -> errf "json round-trip: %s failed to parse: %s" s msg
  in
  let* () =
    require
      (Json.to_string ~strict:true j = s)
      "strict and lax renderings differ on finite data: %s" s
  in
  let r = gen_record rng g in
  let* () =
    match Telemetry.of_json (Telemetry.to_json r) with
    | Some r' when r' = r -> Ok ()
    | Some _ -> errf "telemetry record changed across to_json/of_json"
    | None -> errf "telemetry record failed to parse back"
  in
  let fields =
    List.init
      (1 + Rng.int rng 5)
      (fun i -> (Printf.sprintf "f%d" i, gen_label rng))
  in
  let k1 = Store.key fields and k2 = Store.key fields in
  let* () =
    require
      (Store.describe k1 = Store.describe k2 && Store.key_hash k1 = Store.key_hash k2)
      "equal field lists gave different store keys"
  in
  let* () =
    require
      (String.length (Store.key_hash k1) = 32)
      "store key hash is not 32 hex chars: %s" (Store.key_hash k1)
  in
  if List.length fields > 1 then
    let rk = Store.key (List.rev fields) in
    require
      (Store.describe rk <> Store.describe k1)
      "field order did not change the canonical key rendering"
  else Ok ()

(* {1 Serving protocol round-trips} *)

(* Law (SERVING.md): every request/response value renders to one line
   that parses back to the identical value — over arbitrary corpus
   graphs as payloads, every algorithm, every error code, and ids
   containing JSON-hostile characters. Also locks the cache payload
   codec (solved_to_json/of_json) to the wire shape, so a stored
   result can always be replayed. *)
let serve_codec rng g =
  let module P = Serve_protocol in
  let gen_id rng = if Rng.bool rng then Some (gen_string rng) else None in
  let algorithms = Array.of_list (List.map (fun (e : Algo.entry) -> e.algorithm) Algo.all) in
  let codes =
    [| P.Bad_request; P.Unsupported; P.Too_large; P.Overloaded; P.Shutting_down;
       P.Internal |]
  in
  let solve : P.solve =
    {
      id = gen_id rng;
      format = (if Rng.bool rng then P.Edge_list else P.Metis);
      data = Gio.to_edge_list_string g;
      algorithm = Rng.pick rng algorithms;
      starts = 1 + Rng.int rng 8;
      seed = Rng.int rng 1_000_000;
    }
  in
  let requests =
    [ P.Solve solve; P.Ping (gen_id rng); P.Stats (gen_id rng);
      P.Shutdown (gen_id rng) ]
  in
  let* () =
    List.fold_left
      (fun acc req ->
        let* () = acc in
        let line = P.request_to_line req in
        match P.request_of_line line with
        | Ok req' ->
            require (P.equal_request req req')
              "request changed across the wire: %s" line
        | Error (_, msg) -> errf "request did not parse back (%s): %s" msg line)
      (Ok ()) requests
  in
  let n = Csr.n_vertices g in
  let side = Array.init n (fun _ -> Rng.int rng 2) in
  let n1 = Array.fold_left ( + ) 0 side in
  let solved : P.solved =
    {
      algorithm = Rng.pick rng algorithms;
      cut = Rng.int rng 100;
      n0 = n - n1;
      n1;
      side;
      balanced = Rng.bool rng;
      seconds = Float.abs (gen_float rng);
      cached = Rng.bool rng;
    }
  in
  let stats : P.stats =
    {
      uptime_seconds = Float.abs (gen_float rng);
      requests = Rng.int rng 1000;
      solved = Rng.int rng 1000;
      errors = Rng.int rng 100;
      overloaded = Rng.int rng 100;
      cache_hits = Rng.int rng 1000;
      cache_misses = Rng.int rng 1000;
      queue_depth = Rng.int rng 64;
      queue_capacity = 1 + Rng.int rng 64;
    }
  in
  let responses =
    [
      { P.rid = gen_id rng; reply = P.Solved solved };
      { P.rid = gen_id rng; reply = P.Pong };
      { P.rid = gen_id rng; reply = P.Stats_reply stats };
      { P.rid = gen_id rng; reply = P.Stopping };
      { P.rid = gen_id rng; reply = P.Failed (Rng.pick rng codes, gen_string rng) };
    ]
  in
  let* () =
    List.fold_left
      (fun acc resp ->
        let* () = acc in
        let line = P.response_to_line resp in
        match P.response_of_line line with
        | Ok resp' ->
            require (P.equal_response resp resp')
              "response changed across the wire: %s" line
        | Error msg -> errf "response did not parse back (%s): %s" msg line)
      (Ok ()) responses
  in
  match P.solved_of_json (P.solved_to_json solved) with
  | Ok solved' ->
      require (solved' = solved) "cache payload changed across to_json/of_json"
  | Error msg -> errf "cache payload did not parse back: %s" msg

(* {1 Lint finding codec} *)

(* The [lint --json] report is consumed by CI and by external tooling
   keyed to [Lint.schema_version]; a finding must survive
   to_json -> print -> parse -> of_json byte-exactly, including the
   interprocedural [why] chain. The graph only seeds sizes — the codec
   has no graph domain. *)
let lint_json_codec rng g =
  let gen_path rng =
    let segs = 1 + Rng.int rng 3 in
    String.concat "/" (List.init segs (fun _ -> gen_string rng)) ^ ".ml"
  in
  let rules = [| "no-wall-clock"; "par-unsafe-state"; "dead-export" |] in
  let finding : Lint_rules.finding =
    {
      Lint_rules.file = gen_path rng;
      line = 1 + Rng.int rng 10_000;
      rule = (if Rng.bool rng then Rng.pick rng rules else gen_string rng);
      severity = (if Rng.bool rng then Lint_rules.Error else Lint_rules.Warning);
      message = gen_string rng;
      why =
        List.init
          (Rng.int rng (1 + (Csr.n_vertices g mod 5)))
          (fun _ -> gen_string rng);
    }
  in
  let printed = Json.to_string (Lint.finding_to_json finding) in
  match Json.of_string printed with
  | exception e ->
      errf "finding JSON did not parse back (%s): %s" (Printexc.to_string e)
        printed
  | j -> (
      match Lint.finding_of_json j with
      | Error msg -> errf "finding did not decode (%s): %s" msg printed
      | Ok finding' ->
          let* () =
            require (finding' = finding)
              "finding changed across to_json/of_json: %s" printed
          in
          require (Lint.schema_version >= 1)
            "schema_version regressed below 1: %d" Lint.schema_version)

(* {1 Tracing bit-identity} *)

(* Law (DESIGN S19, S24): a trace sink must never change solver results
   or RNG streams. Run KL, a quick SA and mlfm from identical derived
   streams without a sink, then under an [of_writer ignore] sink, and
   demand bit-identical sides, cuts, and an identical next draw from
   the stream afterwards. The sink is global and fuzz workers run this
   oracle on several domains at once, so a lock serialises its
   installs; a sink the oracle did not install is never closed or
   replaced (both runs then go to it). *)
let trace_lock = Mutex.create ()

let trace_identity rng g =
  let base = Rng.derive_seed rng in
  let observe () =
    let r = Rng.substream ~base 0 in
    let runs =
      List.map
        (fun a ->
          let o = (Algo.find a).run ~sa:quick_sa r g in
          (Array.to_list (Bisection.sides o.bisection), o.final_cut))
        ([ `Kl; `Sa; `Mlfm ] : Algo.t list)
    in
    (runs, Rng.int r 1_000_000)
  in
  Mutex.protect trace_lock (fun () ->
      let install = not (Gb_obs.Trace.enabled ()) in
      let untraced = observe () in
      if install then Gb_obs.Trace.set (Gb_obs.Trace.of_writer ignore);
      let traced =
        Fun.protect ~finally:(fun () -> if install then Gb_obs.Trace.close ()) observe
      in
      require (untraced = traced) "a trace sink changed a solver result or its RNG stream")

(* {1 Whole-graph invariants} *)

let graph_invariants _rng g =
  Csr.check g;
  let edges = Csr.edges g in
  let n = Csr.n_vertices g in
  let* () =
    require
      (List.length edges = Csr.n_edges g)
      "edges list length %d but n_edges %d" (List.length edges) (Csr.n_edges g)
  in
  let* () =
    require
      (List.fold_left (fun acc (_, _, w) -> acc + w) 0 edges = Csr.total_edge_weight g)
      "edge weights do not sum to total_edge_weight"
  in
  let* () =
    List.fold_left
      (fun acc (u, v, w) ->
        let* () = acc in
        let* () = require (u < v && v < n) "edge (%d,%d) out of order or range" u v in
        let* () = require (w > 0) "edge (%d,%d) has non-positive weight %d" u v w in
        require
          (Csr.edge_weight g u v = w && Csr.mem_edge g v u)
          "adjacency lookup disagrees with edge list at (%d,%d)" u v)
      (Ok ()) edges
  in
  let degree_sum = ref 0 and wdeg_sum = ref 0 in
  for v = 0 to n - 1 do
    degree_sum := !degree_sum + Csr.degree g v;
    wdeg_sum := !wdeg_sum + Csr.weighted_degree g v
  done;
  let* () =
    require
      (!degree_sum = 2 * Csr.n_edges g)
      "degree sum %d but 2m = %d" !degree_sum (2 * Csr.n_edges g)
  in
  let* () =
    require
      (!wdeg_sum = 2 * Csr.total_edge_weight g)
      "weighted degree sum %d but 2W = %d" !wdeg_sum (2 * Csr.total_edge_weight g)
  in
  (* The edge-list text format carries edge weights but not vertex
     weights, so the IO round-trip law only covers unit-vertex graphs. *)
  let unit_vertices =
    let ok = ref true in
    for v = 0 to n - 1 do
      if Csr.vertex_weight g v <> 1 then ok := false
    done;
    !ok
  in
  if unit_vertices then
    let g' = Gio.of_edge_list_string (Gio.to_edge_list_string g) in
    require (Csr.equal g g') "edge-list IO round-trip changed the graph"
  else Ok ()

(* {1 The assembled suite} *)

let all =
  let o name applies check = { name; applies; check } in
  let n_ge k g = Csr.n_vertices g >= k in
  [
    o "graph-invariants" (fun _ -> true) graph_invariants;
    o "matching" (fun _ -> true) matching_oracle;
    o "initial-balance" (n_ge 1) initial_balance;
    o "gain-buckets" (fun _ -> true) gain_buckets_oracle;
    o "codec-roundtrip" (fun _ -> true) codec_roundtrip;
    o "serve-codec" (fun _ -> true) serve_codec;
    o "lint-json" (fun _ -> true) lint_json_codec;
    o "kl-accounting" (n_ge 2) kl_accounting;
    o "fm-accounting" (n_ge 2) fm_accounting;
    o "compaction-projection" (n_ge 2) compaction_projection;
    o "multilevel-projection" (n_ge 2) multilevel_projection;
    o "replica-exchange" (n_ge 2) replica_exchange;
    o "exact-witness" (fun g -> n_ge 2 g && Csr.n_vertices g <= exact_limit)
      exact_witness;
    o "tree-exact" (fun g -> n_ge 2 g && is_forest g) tree_exact_oracle;
    o "cycles"
      (fun g ->
        (* The arc-splitting argument is a unit-edge-weight fact; the
           solver rejects weighted collections. *)
        n_ge 3 g
        && Cycles.is_cycle_collection g
        && Csr.total_edge_weight g = Csr.n_edges g)
      cycles_oracle;
    o "trace-identity" (n_ge 2) trace_identity;
    o "solver-cut" (n_ge 2) solver_cut;
  ]

let broken =
  {
    name = "broken-fixture";
    applies = (fun g -> Csr.n_vertices g >= 2 && Csr.n_edges g >= 1);
    check =
      (fun rng g ->
        let side = Initial.random rng g in
        let v = Rng.int rng (Csr.n_vertices g) in
        let cut0 = Bisection.compute_cut g side in
        let gain = Bisection.gain g side v in
        let flipped = Array.copy side in
        flipped.(v) <- 1 - flipped.(v);
        let cut1 = Bisection.compute_cut g flipped in
        (* Deliberately wrong: the true identity is cut1 = cut0 - gain.
           The off-by-one makes this oracle fail on every graph in its
           domain, exercising the reporting and shrinking pipeline. *)
        require
          (cut1 = cut0 - gain + 1)
          "flip of %d: cut %d -> %d but gain %d (+1 fixture)" v cut0 cut1 gain);
  }

let run oracle ~seed g =
  if not (oracle.applies g) then Ok ()
  else
    let rng =
      Rng.create
        ~seed:(Rng.seed_of_string (oracle.name ^ "/" ^ string_of_int seed))
    in
    match oracle.check rng g with
    | r -> r
    | exception Failure msg -> errf "uncaught Failure: %s" msg
    | exception Invalid_argument msg -> errf "uncaught Invalid_argument: %s" msg
    | exception Not_found -> Error "uncaught Not_found"
