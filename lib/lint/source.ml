type tree = Structure of Parsetree.structure | Signature of Parsetree.signature
type t = { tree : (tree, int * string) result; comments : (string * int * int) list }

(* Without this, the lexer prints its own warnings (warning 1 for an
   ambiguous comment start in a fixture) on the lint's stderr. *)
let () = ignore (Warnings.parse_options false "-a")

let line (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let parse ~file source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  let tree =
    match
      if Filename.check_suffix file ".mli" then Signature (Parse.interface lexbuf)
      else Structure (Parse.implementation lexbuf)
    with
    | tree -> Ok tree
    | exception ((Syntaxerr.Error _ | Lexer.Error _) as e) -> (
        match Location.error_of_exn e with
        | Some (`Ok err) ->
            Error (line err.Location.main.loc, Format.asprintf "%t" err.Location.main.txt)
        | Some `Already_displayed | None -> Error (1, Printexc.to_string e))
  in
  (* The lexer keeps the comments of the last parse in module state. *)
  let comments =
    List.map
      (fun (text, (loc : Location.t)) -> (text, line loc, loc.loc_end.pos_lnum))
      (Lexer.comments ())
  in
  { tree; comments }

let path lid =
  let rec go acc = function
    | Longident.Lident s -> s :: acc
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply (l, _) -> go acc l
  in
  go [] lid

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let value_name v = if String.for_all is_ident_char v then v else "( " ^ v ^ " )"

let binding_names (vb : Parsetree.value_binding) =
  let names = ref [] in
  let pat it (p : Parsetree.pattern) =
    Ast_iterator.default_iterator.pat it p;
    match p.ppat_desc with
    | Ppat_var v | Ppat_alias (_, v) -> names := value_name v.txt :: !names
    | _ -> ()
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it vb.pvb_pat;
  List.rev !names
