(* gbisect_lint — the determinism & domain-safety static analysis of
   the OCaml sources (LINTING.md).

   It is an executable of its own because it links the compiler's
   parser (compiler-libs), which every binary that reaches it pays for
   in size and resident memory; the solver binaries do not. Exit codes
   follow the gbisect contract: 0 clean, 1 findings or a runtime
   failure, 2 usage error, each failure with one "gbisect: ..." line on
   stderr. *)

open Cmdliner

let usage_error msg =
  Printf.eprintf "gbisect: %s\n" msg;
  exit 2

let runtime_guard f =
  try f () with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      Printf.eprintf "gbisect: %s\n" msg;
      exit 1

let report ~json report =
  if json then print_endline (Gb_lint.Lint.render_json report)
  else print_string (Gb_lint.Lint.render_human report)

let run paths json rules program graph_out why =
  if rules then print_string (Gb_lint.Rules.rules_doc ())
  else begin
    let program = program || graph_out <> None || why <> None in
    let paths =
      match paths with
      | [] ->
          List.filter Sys.file_exists
            ([ "lib"; "bin"; "test" ] @ if program then [ "examples" ] else [])
      | ps -> ps
    in
    runtime_guard @@ fun () ->
    if not program then begin
      match Gb_lint.Lint.lint_paths paths with
      | Error msg -> usage_error msg
      | Ok r ->
          report ~json r;
          Printf.eprintf "gbisect: lint: %s\n" (Gb_lint.Lint.summary r);
          exit (Gb_lint.Lint.exit_code r)
    end
    else begin
      match Gb_lint.Lint.lint_program paths with
      | Error msg -> usage_error msg
      | Ok (r, prog) -> (
          let module P = Gb_lint.Program in
          Option.iter
            (fun file ->
              Out_channel.with_open_bin file (fun oc ->
                  Out_channel.output_string oc (P.to_dot prog)))
            graph_out;
          match why with
          | Some symbol -> (
              match P.find_symbol prog symbol with
              | None -> usage_error ("lint: --why: no definition named " ^ symbol)
              | Some node -> (
                  match P.chain prog node.P.n_id with
                  | [] ->
                      Printf.printf "%s is not reachable from any parallel region\n"
                        node.P.n_display;
                      exit 0
                  | chain ->
                      Printf.printf "%s is inside a parallel region via:\n  %s\n"
                        node.P.n_display
                        (String.concat "\n  -> " chain);
                      exit 0))
          | None ->
              report ~json r;
              let modules, defs, edges, par = P.stats prog in
              Printf.eprintf
                "gbisect: lint: %s (graph: %d modules, %d defs, %d edges, %d \
                 parallel-reachable)\n"
                (Gb_lint.Lint.summary r) modules defs edges par;
              exit (Gb_lint.Lint.exit_code r))
    end
  end

let cmd =
  let paths_term =
    let doc =
      "Files or directories to lint (directories are walked recursively for .ml and \
       .mli sources). Defaults to $(b,lib bin test), plus $(b,examples) with \
       $(b,--program)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let json_term =
    let doc = "Emit a machine-readable one-line JSON report on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let rules_term =
    let doc = "Print the rule catalogue and the config allowlist, then exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let program_term =
    let doc =
      "Whole-program analysis: build the cross-module call graph and run the \
       interprocedural rules (par-unsafe-state, par-ambient-rng, par-wall-clock, \
       rng-stream-discipline, dead-export) on top of the file-local ones."
    in
    Arg.(value & flag & info [ "program" ] ~doc)
  in
  let graph_term =
    let doc =
      "Write the call graph as Graphviz DOT to $(docv) (parallel fan-out sites and \
       reachable nodes highlighted). Implies $(b,--program)."
    in
    Arg.(value & opt (some string) None & info [ "graph" ] ~docv:"FILE" ~doc)
  in
  let why_term =
    let doc =
      "Print the call chain that puts $(docv) (a definition name, optionally \
       module-qualified) inside a parallel region, then exit. Implies \
       $(b,--program)."
    in
    Arg.(value & opt (some string) None & info [ "why" ] ~docv:"SYMBOL" ~doc)
  in
  let info =
    Cmd.info "gbisect_lint" ~version:"1.0.0"
      ~doc:
        "Static analysis: determinism and domain-safety rules over the OCaml sources \
         (ambient randomness, wall-clock reads, polymorphic compare, unguarded mutable \
         globals — see LINTING.md). With $(b,--program), whole-program analysis over \
         the cross-module call graph (race and RNG-stream discipline reachable from \
         parallel regions, dead exports). Exits 0 when clean, 1 on findings, 2 on \
         usage errors."
  in
  Cmd.v info
    Term.(
      const run $ paths_term $ json_term $ rules_term $ program_term $ graph_term
      $ why_term)

let () =
  (* Cmdliner's stock exit codes are 124 (cli error) and 125 (internal
     error); fold them onto the documented contract. *)
  exit (match Cmd.eval cmd with 124 -> 2 | 125 -> 1 | code -> code)
