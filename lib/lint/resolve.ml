(* Definition/reference extraction on the parse tree: enough structure
   to build a per-module symbol table and a cross-module call graph.
   The companion notes on what is and is not resolved live in
   LINTING.md ("conservatism"). *)

open Parsetree

type reference = { r_path : string list; r_line : int }

type def = {
  d_name : string;
  d_line : int;
  d_rng_param : bool;
  d_mutable_state : bool;
  d_refs : reference list;
}

type extracted = {
  x_defs : def list;
  x_aliases : (string * string list) list;
  x_opens : string list list;
  x_includes : string list list;
  x_submodules : string list;
}

let line = Source.line
let d = Ast_iterator.default_iterator

(* The path a module expression names: [M], or the functor of
   [F(X)] — a functor body is extracted as the submodule [F]. *)
let rec module_path me =
  match me.pmod_desc with
  | Pmod_ident lid -> Some (Source.path lid.txt)
  | Pmod_apply (f, _) | Pmod_apply_unit f | Pmod_constraint (f, _) -> module_path f
  | _ -> None

(* Every value path in [iterate]'s code, and every module path of a
   module expression or a local open. A [let module P = M in] alias
   rewrites paths through [P] in its body; a local open also opens the
   whole file, through [on_open]. *)
let references ~on_open iterate =
  let refs = ref [] in
  let locals = ref [] in
  let expand = function
    | head :: rest as p -> (
        match List.assoc_opt head !locals with Some tgt -> tgt @ rest | None -> p)
    | [] -> []
  in
  let add path ln = refs := { r_path = expand path; r_line = ln } :: !refs in
  let expr it e =
    match e.pexp_desc with
    | Pexp_letmodule ({ txt = Some p; _ }, { pmod_desc = Pmod_ident m; _ }, body) ->
        let saved = !locals in
        locals := (p, expand (Source.path m.txt)) :: saved;
        it.Ast_iterator.expr it body;
        locals := saved
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }, _) ->
        on_open (expand (Source.path m.txt));
        d.expr it e
    | Pexp_ident lid ->
        add (Source.path lid.txt) (line lid.loc);
        d.expr it e
    | _ -> d.expr it e
  in
  let module_expr it me =
    (match me.pmod_desc with
    | Pmod_ident lid -> add (Source.path lid.txt) (line lid.loc)
    | _ -> ());
    d.module_expr it me
  in
  iterate { d with expr; module_expr };
  List.rev !refs

(* Does a parameter pattern receive a stream: a variable named [rng], or
   an [Rng.t] annotation? *)
let takes_rng pat =
  let found = ref false in
  let pat' it p =
    (match p.ppat_desc with Ppat_var { txt = "rng"; _ } -> found := true | _ -> ());
    d.pat it p
  in
  let typ it t =
    (match t.ptyp_desc with
    | Ptyp_constr (lid, _) -> (
        match List.rev (Source.path lid.txt) with "t" :: "Rng" :: _ -> found := true | _ -> ())
    | _ -> ());
    d.typ it t
  in
  let it = { d with pat = pat'; typ } in
  it.pat it pat;
  !found

(* The binding's parameters, up to its body or return annotation. *)
let rec has_rng_param e =
  match e.pexp_desc with
  | Pexp_fun (_, _, p, body) -> takes_rng p || has_rng_param body
  | Pexp_newtype (_, body) -> has_rng_param body
  | _ -> false

let qualified prefix name = String.concat "." (prefix @ [ name ])

let extract (str : structure) =
  let defs = ref [] and aliases = ref [] and opens = ref [] in
  let includes = ref [] and submodules = ref [] in
  let on_open p = opens := p :: !opens in
  let add_def prefix name ln ~rng ~mut ~refs =
    defs :=
      {
        d_name = qualified prefix name;
        d_line = ln;
        d_rng_param = rng;
        d_mutable_state = mut;
        d_refs = refs;
      }
      :: !defs
  in
  let rec items prefix = List.iter (item prefix)
  and item prefix it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let ln = line vb.pvb_loc in
            let refs = references ~on_open (fun it -> it.expr it vb.pvb_expr) in
            let rng = has_rng_param vb.pvb_expr and mut = Rules.allocates_at_init vb in
            match Source.binding_names vb with
            | [] -> add_def prefix (Printf.sprintf "<init:%d>" ln) ln ~rng ~mut ~refs
            | names -> List.iter (fun nm -> add_def prefix nm ln ~rng ~mut ~refs) names)
          vbs
    | Pstr_eval (e, _) ->
        let ln = line it.pstr_loc in
        add_def prefix (Printf.sprintf "<init:%d>" ln) ln ~rng:false ~mut:false
          ~refs:(references ~on_open (fun it -> it.expr it e))
    | Pstr_primitive vd ->
        add_def prefix (Source.value_name vd.pval_name.txt) (line vd.pval_loc) ~rng:false
          ~mut:false ~refs:[]
    | Pstr_module mb -> module_binding prefix mb
    | Pstr_recmodule mbs -> List.iter (module_binding prefix) mbs
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        on_open (Source.path lid.txt)
    | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident lid; _ }; _ } ->
        includes := Source.path lid.txt :: !includes;
        on_open (Source.path lid.txt)
    | _ -> ()
  and module_binding prefix mb =
    match mb.pmb_name.txt with
    | None -> ()
    | Some x ->
        let rec body me =
          match me.pmod_desc with
          | Pmod_structure str ->
              submodules := qualified prefix x :: !submodules;
              items (prefix @ [ x ]) str
          | Pmod_functor (_, me) | Pmod_constraint (me, _) -> body me
          | _ -> (
              match module_path me with
              | Some path -> aliases := (x, path) :: !aliases
              | None -> ())
        in
        body mb.pmb_expr
  in
  items [] str;
  {
    x_defs = List.rev !defs;
    x_aliases = List.rev !aliases;
    x_opens = List.rev !opens;
    x_includes = List.rev !includes;
    x_submodules = List.rev !submodules;
  }

let exports (sg : signature) =
  let out = ref [] in
  let rec items prefix =
    List.iter (fun it ->
        match it.psig_desc with
        | Psig_value vd ->
            out := (qualified prefix (Source.value_name vd.pval_name.txt), line vd.pval_loc) :: !out
        | Psig_module { pmd_name = { txt = Some x; _ }; pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ }
          ->
            items (prefix @ [ x ]) sg
        | _ -> ())
  in
  items [] sg;
  List.rev !out

let is_operator_name name =
  String.length name > 0 && name.[String.length name - 1] = ')'
