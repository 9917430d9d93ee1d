module Json = Gb_obs.Json

type report = { files : string list; findings : Rules.finding list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_source name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let skip_dir name = name = "_build" || (String.length name > 0 && name.[0] = '.')

let rec walk path acc =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if skip_dir name then acc else walk (Filename.concat path name) acc)
         acc
  else if is_source path then path :: acc
  else acc

let expand_paths paths =
  let rec expand acc = function
    | [] -> Ok (List.rev acc)
    | p :: tl ->
        if not (Sys.file_exists p) then
          Error (Printf.sprintf "lint: no such file or directory: %s" p)
        else if Sys.is_directory p then expand (List.rev_append (walk p []) acc) tl
        else expand (p :: acc) tl
  in
  Result.map (List.sort_uniq String.compare) (expand [] paths)

(* check_source sorts within a file; keep files themselves sorted so
   the report is deterministic whatever order the shell expanded. *)
let by_file a b =
  match String.compare a.Rules.file b.Rules.file with
  | 0 -> Rules.compare_findings a b
  | c -> c

let lint_files files =
  let findings =
    List.concat_map (fun f -> Rules.check_source ~file:f (read_file f)) files
  in
  { files; findings = List.sort by_file findings }

let lint_paths paths = Result.map lint_files (expand_paths paths)

(* --- whole-program mode -------------------------------------------- *)

(* The dune file of every scanned module's directory rides along so
   {!Program} can derive display names (library wrapping). *)
let dune_files files =
  List.sort_uniq String.compare
    (List.filter_map
       (fun f ->
         let d = Filename.concat (Filename.dirname f) "dune" in
         if Sys.file_exists d then Some d else None)
       files)

let lint_program paths =
  match expand_paths paths with
  | Error e -> Error e
  | Ok files ->
      let scans = List.map (fun f -> Rules.scan_source ~file:f (read_file f)) files in
      let dunes = List.map (fun f -> (f, read_file f)) (dune_files files) in
      let program = Program.create ~dunes scans in
      let graph_findings = Graph_rules.check program in
      (* one pragma accounting per file: the interprocedural findings
         join the file-local ones before suppression and staleness *)
      let findings =
        List.concat_map
          (fun (s : Rules.scanned) ->
            let here (f : Rules.finding) =
              String.equal (Rules.normalize_path f.file) (Rules.normalize_path s.s_file)
            in
            Rules.apply_pragmas ~program:true s ~extra:(List.filter here graph_findings))
          scans
      in
      Ok ({ files; findings = List.sort by_file findings }, program)

let render_human r =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d: %s [%s] %s\n" f.Rules.file f.Rules.line
           (Rules.severity_name f.Rules.severity)
           f.Rules.rule f.Rules.message))
    r.findings;
  Buffer.contents buf

let schema_version = 1

let finding_to_json (f : Rules.finding) =
  Json.Obj
    [
      ("file", Json.String f.Rules.file);
      ("line", Json.Int f.Rules.line);
      ("rule", Json.String f.Rules.rule);
      ("severity", Json.String (Rules.severity_name f.Rules.severity));
      ("message", Json.String f.Rules.message);
      ("why", Json.List (List.map (fun s -> Json.String s) f.Rules.why));
    ]

let render_json r =
  Json.to_string
    (Json.Obj
       [
         ("schema_version", Json.Int schema_version);
         ("files_scanned", Json.Int (List.length r.files));
         ("findings", Json.List (List.map finding_to_json r.findings));
       ])

let summary r =
  let n = List.length r.findings in
  Printf.sprintf "%d finding%s in %d file%s" n
    (if n = 1 then "" else "s")
    (List.length r.files)
    (if List.length r.files = 1 then "" else "s")

let exit_code r = if r.findings = [] then 0 else 1
