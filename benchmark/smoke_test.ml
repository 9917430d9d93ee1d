(* The benchmark at toy sizes: every workload untraced and traced. Each
   must report exactly the metrics BENCHMARK.json names for the mode,
   finite and in their units, with no failed operation; and on the
   V-cycle workloads the per-level rows must add up to the traced
   spans. *)

module Json = Gbisect.Obs.Json

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("benchmark smoke test: " ^ msg);
      exit 1)
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all
let member k j = match Json.member k j with Some v -> v | None -> fail "missing %S" k
let string_of = function Json.String s -> s | _ -> fail "expected a string"
let list = function Json.List l -> l | _ -> fail "expected a list"
let number j = match Json.to_float j with Some f -> f | None -> fail "expected a number"

let run trace =
  let out = Printf.sprintf "smoke-%d.json" trace in
  let cmd =
    Printf.sprintf "./run.exe --smoke --seed 1 --seconds 0 --trace %d --out %s > /dev/null"
      trace out
  in
  if Sys.command cmd <> 0 then fail "%s failed" cmd;
  let j = Json.of_string (read out) in
  Sys.remove out;
  member "workloads" j

(* The rows of each level sum to the span time they were cut from, and
   host every FM pass. *)
let check_levels w result =
  let detail = member "detail" result in
  let get name = number (member "value" (member name detail)) in
  let solve = get "vcycle.solve_s" and spans = get "vcycle.spans_s" in
  let rows = get "vcycle.rows_s" in
  if Float.abs (rows -. spans) > 0.05 *. solve then
    fail "%s: level rows (%g s) do not add up to the spans (%g s)" w rows spans;
  if spans > 1.01 *. solve then fail "%s: spans (%g s) exceed the solve (%g s)" w spans solve;
  let passes =
    List.fold_left (fun acc row -> acc +. number (member "fm_passes" row)) 0.
      (list (member "levels" result))
  in
  let per_op = number (member "value" (member "fm.passes_per_op" (member "metrics" result))) in
  if Float.abs (passes -. per_op) > 1e-6 then
    fail "%s: level rows hold %g FM passes per solve, the spans %g" w passes per_op

let () =
  let spec = Json.of_string (read "../BENCHMARK.json") in
  let names = List.map (fun w -> string_of (member "name" w)) (list (member "workloads" spec)) in
  List.iter
    (fun (trace, key) ->
      let wanted =
        List.map
          (fun m -> (string_of (member "name" m), string_of (member "unit" m)))
          (list (member key spec))
      in
      let results = run trace in
      List.iter
        (fun w ->
          let r = member w results in
          if member "correct" r <> Json.Bool true || member "failed" r <> Json.Int 0 then
            fail "%s (--trace %d): failed operations" w trace;
          let metrics = member "metrics" r in
          let emitted = match metrics with Json.Obj f -> List.map fst f | _ -> [] in
          if List.sort String.compare emitted <> List.sort String.compare (List.map fst wanted)
          then fail "%s (--trace %d): the metrics differ from BENCHMARK.json %s" w trace key;
          List.iter
            (fun (name, unit) ->
              let m = member name metrics in
              if not (Float.is_finite (number (member "value" m))) then
                fail "%s: %s is not finite" w name;
              if string_of (member "unit" m) <> unit then fail "%s: %s is not in %s" w name unit)
            wanted;
          if trace = 1 && String.starts_with ~prefix:"vcycle" w then check_levels w r)
        names)
    [ (0, "end_to_end"); (1, "per_layer") ]
