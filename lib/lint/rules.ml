type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

type finding = {
  file : string;
  line : int;
  rule : string;
  severity : severity;
  message : string;
  why : string list;
      (* call chain that makes an interprocedural finding reachable;
         [] for file-local rules *)
}

let finding ?(why = []) ~file ~line rule severity message =
  { file; line; rule; severity; message; why }

(* What a rule looks at: one place in a parse tree. *)
type site =
  | Value of string list  (* a value path in an expression: ["Sys"; "time"] *)
  | Path of string list  (* a module expression, module type or type path *)
  | Text of string  (* a string constant outside doc comments *)
  | Binding of Parsetree.value_binding  (* a top-level value binding *)

type rule = {
  name : string;
  r_severity : severity;
  summary : string;
  applies : string -> bool;
  message : string;
  fires : site -> bool;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let normalize_path p = String.map (fun c -> if c = '\\' then '/' else c) p
let in_lib p = contains p "lib/"
let lib_impl p = in_lib p && Filename.check_suffix p ".ml"
let everywhere _ = true

let mk ~name ~severity ~summary ~applies ~message fires =
  { name; r_severity = severity; summary; applies; message; fires }

(* Does the site's path go through module [m]? *)
let mentions m = function Value p | Path p -> List.mem m p | Text _ | Binding _ -> false

(* A value [f] reached directly through one of [modules]: [Sys.time]. *)
let member_of modules pick = function
  | Value p -> (
      match List.rev p with f :: m :: _ -> List.mem m modules && pick f | _ -> false)
  | Path _ | Text _ | Binding _ -> false

(* The stdlib's own value, unqualified or as [Stdlib.f]. *)
let stdlib pick = function
  | Value ([ f ] | [ "Stdlib"; f ]) -> pick f
  | Value _ | Path _ | Text _ | Binding _ -> false

(* ------------------------------------------------------------------ *)
(* The rules                                                           *)

let no_ambient_random =
  mk ~name:"no-ambient-random" ~severity:Error
    ~summary:"stdlib Random outside lib/prng (the sanctioned randomness provider)"
    ~applies:everywhere
    ~message:
      "ambient Random.* bypasses the seeded Gb_prng.Rng streams, so results stop \
       being reproducible from the run's seed; draw from an Rng.t handed down the \
       call chain"
    (mentions "Random")

let wall_clock_members = [ "time"; "gettimeofday"; "localtime"; "gmtime" ]

let no_wall_clock =
  mk ~name:"no-wall-clock" ~severity:Error
    ~summary:"direct Sys.time / Unix.gettimeofday outside Gb_obs.Clock"
    ~applies:everywhere
    ~message:
      "direct wall-clock read; route timing through Gb_obs.Clock so replayed and \
       resumed runs stay byte-identical (executables install the real clock into \
       Clock at startup, under a pragma)"
    (member_of [ "Sys"; "Unix" ] (fun f -> List.mem f wall_clock_members))

let no_marshal =
  mk ~name:"no-marshal" ~severity:Error
    ~summary:"Marshal anywhere (representation-dependent bytes)"
    ~applies:everywhere
    ~message:
      "Marshal bytes depend on compiler version and architecture, so nothing \
       persisted or hashed from them is reproducible; encode canonical JSON via \
       Gb_obs.Json instead"
    (mentions "Marshal")

let hash_members = [ "hash"; "seeded_hash"; "hash_param"; "seeded_hash_param" ]

let no_hashtbl_hash =
  mk ~name:"no-hashtbl-hash" ~severity:Error
    ~summary:"Hashtbl.hash and friends (representation-dependent hashing)"
    ~applies:everywhere
    ~message:
      "Hashtbl.hash hashes the in-memory representation (it traverses closures' \
       environments, changes across versions, and collides structurally-equal \
       values that differ in sharing); derive keys from an explicit canonical \
       encoding"
    (member_of [ "Hashtbl" ] (fun f -> List.mem f hash_members))

let no_poly_compare =
  mk ~name:"no-poly-compare" ~severity:Error
    ~summary:"bare polymorphic compare in sorts/folds"
    ~applies:everywhere
    ~message:
      "bare polymorphic compare orders whatever the value's runtime representation \
       happens to be; spell the order out (Int.compare, Float.compare, \
       String.compare, or an explicit comparator) so a type change cannot silently \
       reorder results"
    (stdlib (String.equal "compare"))

(* Printf-style conversion ending in a float conversion letter. *)
let has_float_conversion s =
  let n = String.length s in
  let is_flag = function
    | '0' .. '9' | '-' | '+' | ' ' | '#' | '.' | '*' -> true
    | _ -> false
  in
  (* %h/%H hex floats are exact (round-trippable), so they are not
     lossy and are deliberately not flagged — profile fingerprints use
     them for that reason. *)
  let is_float_letter = function
    | 'f' | 'F' | 'e' | 'E' | 'g' | 'G' -> true
    | _ -> false
  in
  let rec at i =
    if i >= n - 1 then false
    else if s.[i] <> '%' then at (i + 1)
    else if s.[i + 1] = '%' then at (i + 2)
    else begin
      let j = ref (i + 1) in
      while !j < n && is_flag s.[!j] do
        incr j
      done;
      if !j < n && is_float_letter s.[!j] then true
      else if !j < n && s.[!j] = '%' then at !j
      else at (!j + 1)
    end
  in
  at 0

let no_float_format =
  mk ~name:"no-float-format" ~severity:Warning
    ~summary:"float printf conversions in lib/ outside the canonical printer"
    ~applies:in_lib
    ~message:
      "float printf conversion in library code; Gb_obs.Json owns shortest-round-trip \
       float rendering (a lossy rendering that leaks into stored or replayed data \
       breaks byte-identity; fixed-precision display strings need a pragma saying \
       they are display-only)"
    (function Text s -> has_float_conversion s | Value _ | Path _ | Binding _ -> false)

let stdout_idents =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
    "print_bytes";
    "stdout";
  ]

let no_stdout_in_lib =
  mk ~name:"no-stdout-in-lib" ~severity:Error
    ~summary:"printing to stdout from library code"
    ~applies:in_lib
    ~message:
      "library code must not write to stdout (tables and results are values; \
       executables own presentation and the exit-code contract); return a string or \
       take a writer"
    (fun site ->
      stdlib (fun f -> List.mem f stdout_idents) site
      || member_of [ "Printf"; "Format" ]
           (fun f -> List.mem f [ "printf"; "print_string"; "std_formatter" ])
           site)

let no_exit_in_lib =
  mk ~name:"no-exit-in-lib" ~severity:Error
    ~summary:"exit from library code"
    ~applies:in_lib
    ~message:
      "library code must not call exit; raise (Failure/Invalid_argument) and let \
       the executable map the failure onto the documented exit-code contract"
    (stdlib (String.equal "exit"))

(* A top-level value binding whose right-hand side applies a bare [ref]
   or a mutable container's constructor outside any [fun], [function]
   or [lazy] — a mutable cell created once at module init, visible to
   every domain. *)
let mutable_constructors =
  [
    ("Hashtbl", "create");
    ("Array", "make");
    ("Array", "create_float");
    ("Array", "make_matrix");
    ("Bytes", "create");
    ("Bytes", "make");
    ("Buffer", "create");
    ("Queue", "create");
    ("Stack", "create");
  ]

let allocates_at_init (vb : Parsetree.value_binding) =
  let found = ref false in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
      when (match Source.path txt with
           | [ "ref" ] -> true
           | [ m; f ] -> List.mem (m, f) mutable_constructors
           | _ -> false) ->
        found := true
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it vb.pvb_expr;
  !found

let no_naked_mutable_global =
  mk ~name:"no-naked-mutable-global" ~severity:Error
    ~summary:"top-level ref / Hashtbl / array / buffer in lib/ without Atomic, a guard, or a pragma"
    ~applies:lib_impl
    ~message:
      "top-level mutable state in library code is shared by every domain; make it \
       Atomic, or guard every access with a mutex and say so in a pragma — a plain \
       ref is a data race the moment two domains touch it"
    (function Binding vb -> allocates_at_init vb | Value _ | Path _ | Text _ -> false)

let all =
  [
    no_ambient_random;
    no_wall_clock;
    no_marshal;
    no_hashtbl_hash;
    no_poly_compare;
    no_float_format;
    no_stdout_in_lib;
    no_exit_in_lib;
    no_naked_mutable_global;
  ]

(* ------------------------------------------------------------------ *)
(* The sites of one parse tree                                         *)

(* Every value path of an expression, every module or type path of a
   module expression, module type or type, every string constant
   outside doc comments, and each top-level value binding. *)
let sites (tree : Source.tree) =
  let acc = ref [] in
  let add loc site = acc := (Source.line loc, site) :: !acc in
  let value (lid : Longident.t Location.loc) = add lid.loc (Value (Source.path lid.txt)) in
  let path (lid : Longident.t Location.loc) = add lid.loc (Path (Source.path lid.txt)) in
  let d = Ast_iterator.default_iterator in
  let expr it (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident lid -> value lid
    | Pexp_constant (Pconst_string (s, _, _)) -> add e.pexp_loc (Text s)
    | Pexp_apply (f, args) ->
        it.Ast_iterator.expr it f;
        List.iter
          (function
            (* [f ~compare] hands on a parameter, as [~compare:] labels one *)
            | (Asttypes.Labelled l | Optional l), { Parsetree.pexp_desc = Pexp_ident { txt = Lident v; _ }; _ }
              when String.equal l v ->
                ()
            | _, a -> it.expr it a)
          args
    | _ -> d.expr it e
  in
  let typ it (t : Parsetree.core_type) =
    (match t.ptyp_desc with Ptyp_constr (lid, _) -> path lid | _ -> ());
    d.typ it t
  in
  let module_expr it (m : Parsetree.module_expr) =
    (match m.pmod_desc with Pmod_ident lid -> path lid | _ -> ());
    d.module_expr it m
  in
  let module_type it (m : Parsetree.module_type) =
    (match m.pmty_desc with Pmty_ident lid | Pmty_alias lid -> path lid | _ -> ());
    d.module_type it m
  in
  (* doc comments reach the tree as string attributes *)
  let attribute it (a : Parsetree.attribute) =
    match a.attr_name.txt with "ocaml.doc" | "ocaml.text" -> () | _ -> d.attribute it a
  in
  let it = { d with expr; typ; module_expr; module_type; attribute } in
  (match tree with
  | Source.Structure str ->
      List.iter
        (fun (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter (fun (vb : Parsetree.value_binding) -> add vb.pvb_loc (Binding vb)) vbs
          | _ -> ())
        str;
      it.structure it str
  | Source.Signature sg -> it.signature it sg);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Whole-program (interprocedural) rules. The checks live in
   [Graph_rules] over the [Program] call graph; the catalogue lives
   here so [known_rule], pragmas and [lint --rules] cover one rule
   namespace. *)

(* (name, severity, one-line summary) *)
let program_rules =
  [
    ( "par-unsafe-state",
      Error,
      "non-atomic mutable global reached (transitively) from a parallel region" );
    ("par-ambient-rng", Error, "ambient Random reachable from a parallel worker");
    ("par-wall-clock", Error, "direct wall-clock read reachable from a parallel worker");
    ( "rng-stream-discipline",
      Error,
      "function taking an Rng.t also creates a second ambient stream" );
    ( "dead-export",
      Warning,
      "mli-exported value no other module references, or no executable reaches" );
  ]

let fires_on_value name path =
  List.exists (fun r -> String.equal r.name name && r.fires (Value path)) all

let program_rule_name name =
  List.exists (fun (n, _, _) -> String.equal n name) program_rules

let known_rule name =
  List.exists (fun r -> String.equal r.name name) all || program_rule_name name

(* ------------------------------------------------------------------ *)
(* Config allowlist: the module that owns an effect may use it.        *)

let allowlist =
  [
    (* The PRNG core is the one sanctioned randomness provider (it
       wraps its own lagged-Fibonacci generator, but may legitimately
       reference stdlib Random, e.g. for seeding comparisons), and the
       one module allowed to mint derived streams from raw seeds. *)
    ("lib/prng/", [ "no-ambient-random"; "par-ambient-rng"; "rng-stream-discipline" ]);
    (* The pluggable clock's default source is CPU time. *)
    ("lib/obs/clock.ml", [ "no-wall-clock"; "par-wall-clock" ]);
    (* Owns shortest-round-trip float rendering. *)
    ("lib/obs/json.ml", [ "no-float-format" ]);
    (* Examples are interactive demos outside the determinism
       contract: they print to a human, commit no artifacts, and
       time themselves however is clearest on the page. They are
       scanned by lint --program (as users of the public API) but
       keep their casual clocks. *)
    ("examples/", [ "no-wall-clock"; "par-wall-clock" ]);
  ]

let rules_doc () =
  let buf = Buffer.create 512 in
  let row name severity summary =
    Buffer.add_string buf (Printf.sprintf "  %-24s %-7s %s\n" name severity summary)
  in
  Buffer.add_string buf "rules:\n";
  List.iter (fun r -> row r.name (severity_name r.r_severity) r.summary) all;
  row "pragma" "-" "meta: malformed or unused suppression pragmas";
  row "parse" "error" "meta: a file the OCaml parser rejects (nothing else is checked in it)";
  Buffer.add_string buf "\nwhole-program rules (gbisect_lint --program):\n";
  List.iter (fun (name, sev, summary) -> row name (severity_name sev) summary) program_rules;
  Buffer.add_string buf "\nallowlist (module that owns the effect is exempt):\n";
  List.iter
    (fun (fragment, rules) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-24s %s\n" fragment (String.concat ", " rules)))
    allowlist;
  Buffer.add_string buf
    "\nsuppression: (* lint: allow <rule>[, <rule>] \xe2\x80\x94 reason *) on the \
     offending line or the line above\n";
  Buffer.contents buf

let allowlisted path rule_name =
  List.exists
    (fun (fragment, rules) -> contains path fragment && List.mem rule_name rules)
    allowlist

(* ------------------------------------------------------------------ *)
(* Inline pragmas: (* lint: allow <rule>[, <rule>] — reason *)         *)

type pragma = {
  p_start : int;
  p_end : int;
  p_rules : string list;
  mutable p_used : bool;
}

let strip_stars s =
  (* Tolerate doc-comment leaders: "(** lint: ... *)" lexes with a
     leading '*'. *)
  let n = String.length s in
  let i = ref 0 in
  while !i < n && (s.[!i] = '*' || s.[!i] = ' ' || s.[!i] = '\t' || s.[!i] = '\n') do
    incr i
  done;
  String.sub s !i (n - !i)

let words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\n' || c = '\t' then ' ' else c) s)
  |> List.filter (fun w -> w <> "")

let is_reason_separator w = w = "\xe2\x80\x94" (* em dash *) || w = "-" || w = "--"

let meta ~file ~line message = finding ~file ~line "pragma" Error message

(* Parse one comment (text, first and last line); [None] if it is not
   a lint pragma at all. *)
let parse_pragma ~file (text, c_start, c_end) : (pragma option * finding list) option =
  let text = strip_stars text in
  let prefixed prefix =
    String.length text >= String.length prefix
    && String.sub text 0 (String.length prefix) = prefix
  in
  if not (prefixed "lint:") then None
  else
    let line = c_start in
    let rest = String.sub text 5 (String.length text - 5) in
    match words rest with
    | "allow" :: more ->
        let rec split_rules acc = function
          | [] -> (List.rev acc, None)
          | w :: tl when is_reason_separator w -> (List.rev acc, Some tl)
          | w :: tl ->
              let w =
                if String.length w > 0 && w.[String.length w - 1] = ',' then
                  String.sub w 0 (String.length w - 1)
                else w
              in
              split_rules (w :: acc) tl
        in
        let rules, reason = split_rules [] more in
        let problems = ref [] in
        List.iter
          (fun rl ->
            if not (known_rule rl) then
              problems :=
                meta ~file ~line
                  (Printf.sprintf "lint pragma names unknown rule %S" rl)
                :: !problems)
          rules;
        if rules = [] then
          problems := meta ~file ~line "lint pragma lists no rules" :: !problems;
        (match reason with
        | Some (_ :: _) -> ()
        | Some [] | None ->
            problems :=
              meta ~file ~line
                "lint pragma needs a justification: (* lint: allow <rule> \xe2\x80\x94 \
                 reason *)"
              :: !problems);
        if !problems <> [] then Some (None, List.rev !problems)
        else
          Some
            ( Some
                { p_start = c_start; p_end = c_end; p_rules = rules; p_used = false },
              [] )
    | directive :: _ ->
        Some
          ( None,
            [ meta ~file ~line (Printf.sprintf "unknown lint pragma directive %S" directive) ]
          )
    | [] -> Some (None, [ meta ~file ~line "empty lint pragma" ])

let compare_findings a b =
  match Int.compare a.line b.line with
  | 0 -> String.compare a.rule b.rule
  | c -> c

(* The name of the last top-level binding ([let]/[val]/[external]) at
   or above [line] — so a staleness warning can say where to look
   without the reader opening the file. *)
let enclosing_binding (tree : Source.tree) line =
  let head loc kw name best = if Source.line loc <= line then Some (kw, name) else best in
  match tree with
  | Source.Structure str ->
      List.fold_left
        (fun best (item : Parsetree.structure_item) ->
          match item.pstr_desc with
          | Pstr_value (_, vb :: _) -> (
              match Source.binding_names vb with
              | name :: _ -> head vb.pvb_loc "let" name best
              | [] -> best)
          | Pstr_primitive vd -> head vd.pval_loc "external" vd.pval_name.txt best
          | _ -> best)
        None str
  | Source.Signature sg ->
      List.fold_left
        (fun best (item : Parsetree.signature_item) ->
          match item.psig_desc with
          | Psig_value vd ->
              let kw = if vd.pval_prim = [] then "val" else "external" in
              head vd.pval_loc kw vd.pval_name.txt best
          | _ -> best)
        None sg

type scanned = {
  s_file : string;
  s_tree : Source.tree option;
  s_raw : finding list;
  s_pragmas : pragma list;
}

let scan_source ~file source =
  let path = normalize_path file in
  let parsed = Source.parse ~file source in
  match parsed.Source.tree with
  | Error (line, msg) ->
      (* nothing else is judged in a file the compiler would reject *)
      let f = finding ~file ~line "parse" Error ("file does not parse: " ^ msg) in
      { s_file = file; s_tree = None; s_raw = [ f ]; s_pragmas = [] }
  | Ok tree ->
      let sites = sites tree in
      let raw =
        List.concat_map
          (fun r ->
            if (not (r.applies path)) || allowlisted path r.name then []
            else
              List.filter_map
                (fun (line, site) ->
                  if r.fires site then Some (finding ~file ~line r.name r.r_severity r.message)
                  else None)
                sites)
          all
      in
      (* pragma problems join the raw findings: no pragma can name the
         meta-rule, so none suppresses them *)
      let pragmas, problems =
        List.fold_left
          (fun (ps, probs) c ->
            match parse_pragma ~file c with
            | None -> (ps, probs)
            | Some (p, more) -> (Option.to_list p @ ps, probs @ more))
          ([], []) parsed.Source.comments
      in
      { s_file = file; s_tree = Some tree; s_raw = raw @ problems; s_pragmas = List.rev pragmas }

(* Does [p] allow [rule] at [line]? Covers the pragma's own lines and
   the line after it, like inline suppression always has. *)
let pragma_covers p ~rule ~line =
  List.mem rule p.p_rules && line >= p.p_start && line <= p.p_end + 1

let pragma_mark_used p = p.p_used <- true
let pragma_line p = p.p_start
let pragma_rules p = p.p_rules

(* Merge [extra] (interprocedural findings attributed to this file)
   with the file-local scan, apply inline pragmas, and account for
   stale pragmas. In file-local mode ([program = false]) a pragma that
   names only whole-program rules is not reported unused: those rules
   can only fire under [lint --program], which owns the accounting. *)
let apply_pragmas ?(program = false) scanned ~extra =
  let path = normalize_path scanned.s_file in
  let extra = List.filter (fun f -> not (allowlisted path f.rule)) extra in
  let suppressed f =
    List.exists
      (fun p ->
        if pragma_covers p ~rule:f.rule ~line:f.line then begin
          p.p_used <- true;
          true
        end
        else false)
      scanned.s_pragmas
  in
  let kept = List.filter (fun f -> not (suppressed f)) (scanned.s_raw @ extra) in
  let unused =
    List.filter_map
      (fun p ->
        let program_only = List.for_all program_rule_name p.p_rules in
        if p.p_used || ((not program) && program_only) then None
        else
          let where =
            match Option.bind scanned.s_tree (fun t -> enclosing_binding t p.p_start) with
            | Some (kw, name) -> Printf.sprintf " near `%s %s`" kw name
            | None -> ""
          in
          Some
            (finding ~file:scanned.s_file ~line:p.p_start "pragma" Warning
               (Printf.sprintf
                  "unused lint pragma%s (allows %s but nothing it names fires here)" where
                  (String.concat ", " p.p_rules))))
      scanned.s_pragmas
  in
  List.sort compare_findings (kept @ unused)

let check_source ~file source =
  apply_pragmas (scan_source ~file source) ~extra:[]
