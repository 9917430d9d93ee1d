(* The benchmark (see README.md):

     run.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
             [--smoke] [--out FILE]
     run.exe compare A.json... [-- B.json...] [--out FILE]

   Each workload runs in a child process of its own, so peak RSS and GC
   state are per workload. Every figure is printed as a
   `workload metric value unit` line, and the last line is one JSON
   object with the end-to-end metrics (--trace 0) or the per-layer
   metrics of a traced run (--trace 1). *)

open Measure
module G = Gbisect

(* Why each workload is here: BENCHMARK.json and README.md. *)
let workloads =
  [
    ("vcycle-gnp", Batch.vcycle ~inputs:8 ~n:50_000 ~avg_degree:4.);
    ("paper-kl", Batch.paper `Kl);
    ("paper-sa", Batch.paper `Sa);
    ("serve-hit", Service.hit);
    ("serve-heavy", Service.heavy);
  ]

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]))
       ms)

let metrics_of_json = function
  | Some (Json.Obj fields) ->
      List.map
        (fun (name, m) ->
          match (Json.member "value" m, Json.member "unit" m) with
          | Some (Json.Float _ | Json.Int _ as v), Some (Json.String unit) ->
              { name; value = Option.get (Json.to_float v); unit }
          | _ -> failwith (Printf.sprintf "metric %s is not a finite number" name))
        fields
  | _ -> []

let outcome_json o =
  Json.Obj
    [
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("metrics", metrics_json o.metrics);
      ("detail", metrics_json o.detail);
      ("levels", o.levels);
    ]

let outcome_of_json j =
  let int k = match Json.member k j with Some (Json.Int n) -> n | _ -> failwith ("missing " ^ k) in
  {
    attempted = int "attempted";
    failed = int "failed";
    metrics = metrics_of_json (Json.member "metrics" j);
    detail = metrics_of_json (Json.member "detail" j);
    levels = Option.value (Json.member "levels" j) ~default:Json.Null;
  }

let scratch_of pid = Filename.concat "_bench" (string_of_int pid)

(* In the child: run one workload and print its outcome as one line. *)
let child name ctx =
  let scratch = scratch_of (Unix.getpid ()) in
  mkdir_p scratch;
  let o =
    Fun.protect
      ~finally:(fun () -> rm_rf scratch)
      (fun () -> (List.assoc name workloads) { ctx with scratch })
  in
  print_endline (Json.to_string (outcome_json o))

let spawn name args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list ((Sys.executable_name :: "--child" :: name :: args)))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let text = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  rm_rf (scratch_of pid);
  match (status, List.rev (String.split_on_char '\n' (String.trim text))) with
  | Unix.WEXITED 0, last :: _ -> outcome_of_json (Json.of_string last)
  | _ -> failwith (Printf.sprintf "workload %s did not complete" name)

let report ~out ~args results =
  List.iter
    (fun (w, o) ->
      List.iter
        (fun m ->
          Printf.printf "%s %s %s %s\n" w m.name (Json.to_string (Json.Float m.value)) m.unit)
        (o.metrics @ o.detail))
    results;
  Option.iter
    (fun file ->
      let j =
        Json.Obj
          ([ ("schema_version", Json.Int 1); ("host", host ()) ]
          @ args
          @ [ ("workloads", Json.Obj (List.map (fun (w, o) -> (w, outcome_json o)) results)) ])
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Json.to_string j);
          output_char oc '\n'))
    out;
  let key w m = match results with [ _ ] -> m.name | _ -> w ^ "/" ^ m.name in
  let attempted = List.fold_left (fun acc (_, o) -> acc + o.attempted) 0 results in
  let failed = List.fold_left (fun acc (_, o) -> acc + o.failed) 0 results in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              metrics_json
                (List.concat_map
                   (fun (w, o) -> List.map (fun m -> { m with name = key w m }) o.metrics)
                   results) );
          ]))

let usage =
  "run.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n\
   run.exe compare A.json... [-- B.json...] [--out FILE]\n\n\
   Workloads: "
  ^ String.concat ", " (List.map fst workloads)

let () =
  G.Obs.Clock.set Unix.gettimeofday;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: args -> Compare.main args
  | _ ->
      let names = ref [] and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
      let smoke = ref false and out = ref None and child_of = ref None in
      let spec =
        Arg.align
          [
            ( "--workload",
              Arg.String (fun w -> names := w :: !names),
              "W run workload W (repeatable; default: all)" );
            ("--seed", Arg.Set_int seed, "N seed every input derives from (default 1)");
            ("--seconds", Arg.Set_float seconds, "S measured time per workload (default 10)");
            ("--trace", Arg.Set_int trace, "0|1 1: per-layer metrics of a traced run");
            ("--smoke", Arg.Set smoke, " toy sizes, a few seconds in all (the test suite's run)");
            ("--out", Arg.String (fun f -> out := Some f), "FILE also write the results as JSON");
            ( "--child",
              Arg.String (fun w -> child_of := Some w),
              "W (internal) run W in this process" );
          ]
      in
      Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
      let names = if !names = [] then List.map fst workloads else List.rev !names in
      List.iter
        (fun w ->
          if not (List.mem_assoc w workloads) then begin
            prerr_endline ("run.exe: unknown workload " ^ w ^ "\n" ^ usage);
            exit 2
          end)
        names;
      if (!trace <> 0 && !trace <> 1) || !seconds < 0. then begin
        prerr_endline usage;
        exit 2
      end;
      let ctx =
        {
          seed = !seed;
          seconds = !seconds;
          traced = !trace = 1;
          smoke = !smoke;
          scratch = "";
          gbisect =
            Filename.concat (Filename.dirname Sys.executable_name) "../bin/gbisect_cli.exe";
        }
      in
      match !child_of with
      | Some w -> child w ctx
      | None ->
          if not (Sys.file_exists ctx.gbisect) then failwith ("missing " ^ ctx.gbisect);
          let args =
            [ "--seed"; string_of_int ctx.seed; "--seconds"; Printf.sprintf "%.17g" ctx.seconds;
              "--trace"; string_of_int !trace ]
            @ if ctx.smoke then [ "--smoke" ] else []
          in
          let results = List.map (fun w -> (w, spawn w args)) names in
          (try Unix.rmdir "_bench" with Unix.Unix_error _ -> ());
          report ~out:!out
            ~args:
              [
                ("seed", Json.Int ctx.seed);
                ("seconds", Json.Float ctx.seconds);
                ("trace", Json.Int !trace);
                ("smoke", Json.Bool ctx.smoke);
              ]
            results
