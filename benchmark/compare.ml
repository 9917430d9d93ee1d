(* `run.exe compare A.json... [-- B.json...] [--out FILE]`: for every
   workload and end-to-end metric, the median and quartiles over the
   runs in A, and with B a verdict under the BENCHMARK.json bounds:
   better, same, worse, or unresolved when the run-to-run spread is
   wider than the bound. Without B, --out writes A's runs and medians
   as one file (how results/baseline.json is made). *)

open Measure

let read_json path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)
let member k j = match Json.member k j with Some v -> v | None -> failwith ("missing " ^ k)
let string_of = function Json.String s -> s | _ -> failwith "expected a string"
let number j = match Json.to_float j with Some f -> f | None -> failwith "expected a number"
let fields = function Json.Obj f -> f | _ -> []

(* A results file holds one run, or several under "runs". *)
let runs_of path =
  let j = read_json path in
  match Json.member "runs" j with Some (Json.List runs) -> runs | _ -> [ j ]

let values runs workload name =
  List.filter_map
    (fun run ->
      Option.bind (Json.member workload (member "workloads" run)) (fun w ->
          Option.map (fun m -> number (member "value" m)) (Json.member name (member "metrics" w))))
    runs

let workloads runs =
  List.sort_uniq String.compare
    (List.concat_map (fun run -> List.map fst (fields (member "workloads" run))) runs)

type bound = { name : string; unit : string; lower_better : bool; bound : float }

let spec () =
  List.map
    (fun m ->
      {
        name = string_of (member "name" m);
        unit = string_of (member "unit" m);
        lower_better = string_of (member "better" m) = "lower";
        bound = number (member "bound" m);
      })
    (match member "end_to_end" (read_json "BENCHMARK.json") with
    | Json.List l -> l
    | _ -> failwith "BENCHMARK.json: end_to_end is not a list")

let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

let verdict b a bs =
  let worse x y = if b.lower_better then x > y else x < y in
  let change =
    (if b.lower_better then median bs -. median a else median a -. median bs)
    /. Float.abs (median a)
  in
  let every f = List.for_all (fun x -> List.for_all (fun y -> f x y) a) bs in
  if Float.max (spread a) (spread bs) > b.bound then
    if every (fun x y -> worse y x) then "better"
    else if every worse then "worse"
    else "unresolved"
  else if change > b.bound then "worse"
  else if change < -.b.bound then "better"
  else "same"

let summary xs =
  let q1, q3 = quartiles xs in
  Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (median xs) q1 q3 (List.length xs)

let main args =
  let out, args =
    let rec go out acc = function
      | "--out" :: file :: rest -> go (Some file) acc rest
      | x :: rest -> go out (x :: acc) rest
      | [] -> (out, List.rev acc)
    in
    go None [] args
  in
  let a_files, b_files =
    let rec split acc = function
      | "--" :: rest -> (List.rev acc, Some rest)
      | x :: rest -> split (x :: acc) rest
      | [] -> (List.rev acc, None)
    in
    split [] args
  in
  if a_files = [] then failwith "compare: no results files given";
  let a = List.concat_map runs_of a_files in
  let bounds = spec () in
  match b_files with
  | None ->
      let cells w =
        List.filter_map
          (fun b -> match values a w b.name with [] -> None | xs -> Some (b, xs))
          bounds
      in
      List.iter
        (fun w ->
          List.iter
            (fun (b, xs) ->
              Printf.printf "%-12s %-12s %s spread %.1f%% (bound %.0f%%) %s\n" w b.name
                (summary xs) (100. *. spread xs) (100. *. b.bound) b.unit)
            (cells w))
        (workloads a);
      Option.iter
        (fun file ->
          let medians w =
            Json.Obj
              (List.map
                 (fun (b, xs) ->
                   ( b.name,
                     Json.Obj [ ("value", Json.Float (median xs)); ("unit", Json.String b.unit) ]
                   ))
                 (cells w))
          in
          let doc =
            Json.Obj
              [
                ("schema_version", Json.Int 1);
                ("median", Json.Obj (List.map (fun w -> (w, medians w)) (workloads a)));
                ("runs", Json.List a);
              ]
          in
          Out_channel.with_open_bin file (fun oc ->
              output_string oc (Json.to_string doc);
              output_char oc '\n'))
        out
  | Some b_files ->
      let bs = List.concat_map runs_of b_files in
      List.iter
        (fun w ->
          List.iter
            (fun b ->
              match (values a w b.name, values bs w b.name) with
              | [], _ | _, [] -> ()
              | xa, xb ->
                  Printf.printf "%-12s %-12s A %s | B %s | change %+.1f%% (bound %.0f%%) %s\n" w
                    b.name (summary xa) (summary xb)
                    (100. *. ((median xb /. median xa) -. 1.))
                    (100. *. b.bound) (verdict b xa xb))
            bounds)
        (workloads a)
