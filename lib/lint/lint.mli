(** Driver and renderers for [gbisect_lint].

    This module is deliberately pure with respect to presentation: it
    returns strings and never prints or exits (it must survive its own
    [no-stdout-in-lib] / [no-exit-in-lib] rules). Executables own the
    printing and the uniform exit-code contract: 0 clean, 1 findings,
    2 usage. *)

type report = { files : string list; findings : Rules.finding list }
(** [files] is every file scanned (sorted); [findings] is sorted by
    file, then line, then rule. *)

val expand_paths : string list -> (string list, string) result
(** Directories are walked recursively for [.ml]/[.mli] files
    (skipping [_build] and dot-directories); plain files are taken
    verbatim whatever their suffix. [Error msg] if a path does not
    exist — a usage error under the exit-code contract. *)

val lint_files : string list -> report
(** Lint exactly these files. Unreadable files raise [Sys_error]. *)

val lint_paths : string list -> (report, string) result
(** {!expand_paths} composed with {!lint_files}. *)

val lint_program : string list -> (report * Program.t, string) result
(** Whole-program mode: expand paths, build the {!Program} call graph
    (the [dune] file of each scanned directory rides along for display
    names), run the file-local {i and} the {!Graph_rules}
    interprocedural rules under one per-file pragma accounting, and
    return the graph alongside the report for [--graph]/[--why]. *)

val schema_version : int
(** Version of the [--json] report shape — bumped on any change to the
    object layout, like the bench artifacts. *)

val finding_to_json : Rules.finding -> Gb_obs.Json.t
(** One finding as [--json] prints it. *)

val render_human : report -> string
(** One [file:line: severity [rule] message] line per finding; empty
    string when clean. *)

val render_json : report -> string
(** One-line JSON: [{"files_scanned": n, "findings": [...]}], via
    {!Gb_obs.Json} (no trailing newline). *)

val summary : report -> string
(** e.g. ["2 findings in 143 files"] — for a trailing stderr line. *)

val exit_code : report -> int
(** 1 if there is any finding (whatever its severity), else 0. *)
