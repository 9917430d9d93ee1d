(* Behaviour lock: pins observable outputs to committed values so a
   refactor that should change nothing can prove it changed nothing.

   lock.golden holds one line per locked value:
   - "fingerprint PROFILE STRING": the result-store fingerprint of each
     profile (store keys embed it, so a change orphans every stored cell);
   - "table ID MD5": the digest of every registered experiment table
     rendered at the smoke profile under a pinned clock;
   - "cut CASE ALGO CUT": the fixed-seed cut of every algorithm on one
     case of each fuzz family with at least 2 vertices, and on
     Gnp(2000, d=4), which coarsens deep enough to exercise the
     multilevel refinement budget.

   To re-baseline after an intended behaviour change, run
   [GBISECT_LOCK_WRITE=$PWD/test/lock.golden dune exec test/test_lock.exe]
   from the repository root and list every changed line in CHANGES.md. *)

module Obs = Gbisect.Obs
module Profile = Gbisect.Profile
module Registry = Gbisect.Registry

let golden_path =
  (* dune runtest runs from the test build directory; dune exec from the
     project root. *)
  match List.find_opt Sys.file_exists [ "lock.golden"; "test/lock.golden" ] with
  | Some p -> p
  | None -> "lock.golden"

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if line = "" || line.[0] = '#' then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let fingerprints =
  List.map
    (fun (p : Profile.t) -> Printf.sprintf "fingerprint %s %s" p.name (Profile.fingerprint p))
    [ Profile.smoke; Profile.quick; Profile.paper ]

(* Seconds cells read the clock; pinning it makes every table a pure
   function of the code. *)
let with_constant_clock f =
  Obs.Clock.set (fun () -> 0.);
  (* lint: allow no-wall-clock — restores the default clock source after the pinned-clock scope *)
  Fun.protect ~finally:(fun () -> Obs.Clock.set Sys.time) f

let tables () =
  with_constant_clock (fun () ->
      List.map
        (fun (e : Registry.experiment) ->
          Printf.sprintf "table %s %s" e.id
            (Digest.to_hex (Digest.string (e.run Profile.smoke))))
        Registry.all)

let algorithms = List.map (fun (e : Gbisect.Algo.entry) -> (e.id, e.algorithm)) Gbisect.Algo.all

(* The first corpus case of each family with at least 2 vertices. *)
let family_cases () =
  let module G = Gbisect.Fuzz_generators in
  let rec first family seed =
    match G.generate ~seed with
    | { family = f; graph; _ } when f = family && Gbisect.Graph.n_vertices graph >= 2 ->
        (Printf.sprintf "%s#%d" family seed, graph)
    | _ | (exception _) -> first family (seed + 1)
  in
  List.filter_map
    (fun family ->
      if List.mem family [ "empty"; "singleton" ] then None else Some (first family 0))
    G.families

let gnp_case () =
  let rng = Gbisect.Rng.create ~seed:1 in
  ("gnp-2000-d4#1", Gbisect.Gnp.with_average_degree rng ~n:2000 ~avg_degree:4.)

let cuts () =
  List.concat_map
    (fun (label, g) ->
      List.map
        (fun (id, algorithm) ->
          let r = Gbisect.solve ~algorithm ~starts:1 (Gbisect.Rng.create ~seed:1) g in
          Printf.sprintf "cut %s %s %d" label id (Gbisect.Bisection.cut r.bisection))
        algorithms)
    (family_cases () @ [ gnp_case () ])

let check_lines what expected actual =
  let key line =
    match String.rindex_opt line ' ' with Some i -> String.sub line 0 i | None -> line
  in
  let expected = List.filter (fun l -> String.starts_with ~prefix:what l) expected in
  let diffs =
    List.filter_map
      (fun a ->
        match List.find_opt (fun e -> key e = key a) expected with
        | Some e when e = a -> None
        | Some e -> Some (Printf.sprintf "  expected %s\n  got      %s" e a)
        | None -> Some (Printf.sprintf "  not in the golden file: %s" a))
      actual
  in
  let missing =
    List.filter (fun e -> not (List.exists (fun a -> key a = key e) actual)) expected
  in
  let diffs = diffs @ List.map (Printf.sprintf "  no longer produced: %s") missing in
  if diffs <> [] then
    Alcotest.failf "%d %s line(s) moved:\n%s" (List.length diffs) what
      (String.concat "\n" diffs)

let () =
  match Sys.getenv_opt "GBISECT_LOCK_WRITE" with
  | Some path ->
      let oc = open_out_bin path in
      output_string oc
        "# Behaviour lock for test/test_lock.ml; regenerate only for an intended change.\n";
      List.iter
        (fun l -> output_string oc (l ^ "\n"))
        (fingerprints @ tables () @ cuts ());
      close_out oc
  | None ->
      let golden = read_lines golden_path in
      let case name what actual =
        Helpers.case name (fun () -> check_lines what golden (actual ()))
      in
      Alcotest.run "lock"
        [
          ( "lock",
            [
              case "profile fingerprints are unchanged" "fingerprint" (fun () ->
                  fingerprints);
              case "every smoke table renders byte-identically" "table" tables;
              case "fixed-seed cuts of every algorithm are unchanged" "cut" cuts;
            ] );
        ]
