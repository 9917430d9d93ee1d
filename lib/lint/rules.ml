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

type rule = {
  name : string;
  r_severity : severity;
  summary : string;
  applies : string -> bool;
  check : file:string -> Tokenizer.t -> finding list;
}

(* ------------------------------------------------------------------ *)
(* Small helpers over the token stream                                 *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let normalize_path p = String.map (fun c -> if c = '\\' then '/' else c) p
let in_lib p = contains p "lib/"
let lib_impl p = in_lib p && Filename.check_suffix p ".ml"
let everywhere _ = true

let tk (r : Tokenizer.t) i =
  if i >= 0 && i < Array.length r.tokens then Some r.tokens.(i).tok else None

let line_of (r : Tokenizer.t) i = r.tokens.(i).line
let is_dot r i = tk r i = Some (Tokenizer.Sym ".")

(* Keywords that make the following [ident] a definition, not a use. *)
let definition_keywords = [ "let"; "and"; "rec"; "val"; "external"; "method"; "type" ]

let scan r f =
  let acc = ref [] in
  Array.iteri
    (fun i _ -> match f i with None -> () | Some x -> acc := x :: !acc)
    r.Tokenizer.tokens;
  List.rev !acc

(* A finding for the qualified access [Module.member] at token [i]
   (pointing at the module), when [member] satisfies [pick]. *)
let qualified_access r i ~modules ~pick =
  match tk r i with
  | Some (Tokenizer.Uident m) when List.mem m modules && is_dot r (i + 1) -> (
      match tk r (i + 2) with
      | Some (Tokenizer.Ident f) when pick f -> Some (line_of r i)
      | Some (Tokenizer.Uident _) when pick "" -> Some (line_of r i)
      | _ -> if pick "" then Some (line_of r i) else None)
  | _ -> None

let mk ~name ~severity ~summary ~applies ~message check =
  {
    name;
    r_severity = severity;
    summary;
    applies;
    check =
      (fun ~file r ->
        List.map
          (fun line -> { file; line; rule = name; severity; message; why = [] })
          (check r));
  }

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
    (fun r ->
      scan r (fun i -> qualified_access r i ~modules:[ "Random" ] ~pick:(fun _ -> true)))

let wall_clock_members = [ "time"; "gettimeofday"; "localtime"; "gmtime" ]

let no_wall_clock =
  mk ~name:"no-wall-clock" ~severity:Error
    ~summary:"direct Sys.time / Unix.gettimeofday outside Gb_obs.Clock"
    ~applies:everywhere
    ~message:
      "direct wall-clock read; route timing through Gb_obs.Clock so replayed and \
       resumed runs stay byte-identical (executables install the real clock into \
       Clock at startup, under a pragma)"
    (fun r ->
      scan r (fun i ->
          qualified_access r i ~modules:[ "Sys"; "Unix" ]
            ~pick:(fun f -> List.mem f wall_clock_members)))

let no_marshal =
  mk ~name:"no-marshal" ~severity:Error
    ~summary:"Marshal anywhere (representation-dependent bytes)"
    ~applies:everywhere
    ~message:
      "Marshal bytes depend on compiler version and architecture, so nothing \
       persisted or hashed from them is reproducible; encode canonical JSON via \
       Gb_obs.Json instead"
    (fun r ->
      scan r (fun i ->
          match tk r i with
          | Some (Tokenizer.Uident "Marshal") when is_dot r (i + 1) -> Some (line_of r i)
          | _ -> None))

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
    (fun r ->
      scan r (fun i ->
          qualified_access r i ~modules:[ "Hashtbl" ]
            ~pick:(fun f -> List.mem f hash_members)))

let no_poly_compare =
  mk ~name:"no-poly-compare" ~severity:Error
    ~summary:"bare polymorphic compare in sorts/folds"
    ~applies:everywhere
    ~message:
      "bare polymorphic compare orders whatever the value's runtime representation \
       happens to be; spell the order out (Int.compare, Float.compare, \
       String.compare, or an explicit comparator) so a type change cannot silently \
       reorder results"
    (fun r ->
      scan r (fun i ->
          match tk r i with
          | Some (Tokenizer.Ident "compare") -> (
              let prev = tk r (i - 1) and next = tk r (i + 1) in
              match prev with
              | Some (Tokenizer.Sym ".") ->
                  (* Module-qualified: only Stdlib.compare is the
                     polymorphic one. *)
                  if tk r (i - 2) = Some (Tokenizer.Uident "Stdlib") then
                    Some (line_of r i)
                  else None
              | Some (Tokenizer.Sym "~") | Some (Tokenizer.Sym "?") ->
                  None (* labelled argument or parameter *)
              | Some (Tokenizer.Ident k) when List.mem k definition_keywords -> None
              | _ ->
                  if next = Some (Tokenizer.Sym ":") then None
                    (* label or signature declaration *)
                  else Some (line_of r i))
          | _ -> None))

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
    (fun r ->
      scan r (fun i ->
          match tk r i with
          | Some (Tokenizer.Str s) when has_float_conversion s -> Some (line_of r i)
          | _ -> None))

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
    (fun r ->
      scan r (fun i ->
          match tk r i with
          | Some (Tokenizer.Ident id) when List.mem id stdout_idents ->
              if is_dot r (i - 1) then None else Some (line_of r i)
          | Some (Tokenizer.Uident ("Printf" | "Format")) when is_dot r (i + 1) -> (
              match tk r (i + 2) with
              | Some (Tokenizer.Ident ("printf" | "print_string" | "std_formatter")) ->
                  Some (line_of r i)
              | _ -> None)
          | _ -> None))

let no_exit_in_lib =
  mk ~name:"no-exit-in-lib" ~severity:Error
    ~summary:"exit from library code"
    ~applies:in_lib
    ~message:
      "library code must not call exit; raise (Failure/Invalid_argument) and let \
       the executable map the failure onto the documented exit-code contract"
    (fun r ->
      scan r (fun i ->
          match tk r i with
          | Some (Tokenizer.Ident "exit") -> (
              match tk r (i - 1) with
              | Some (Tokenizer.Sym ".") ->
                  if tk r (i - 2) = Some (Tokenizer.Uident "Stdlib") then
                    Some (line_of r i)
                  else None
              | Some (Tokenizer.Sym "~") | Some (Tokenizer.Sym "?") -> None
              | Some (Tokenizer.Ident k) when List.mem k definition_keywords -> None
              | _ ->
                  if tk r (i + 1) = Some (Tokenizer.Sym ":") then None
                  else Some (line_of r i))
          | _ -> None))

(* Top-level [let x = ref ...] / [let x = Hashtbl.create ...] in
   library implementations. Detection is token-shaped: a column-0
   [let] binding a plain name (no parameters) whose body mentions a
   bare [ref] or a mutable container's constructor before any
   [fun]/[function] — i.e. a mutable cell created once at module init,
   visible to every domain. *)
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

let allocates_mutable m f = List.mem (m, f) mutable_constructors

let structure_keywords =
  [ "let"; "and"; "module"; "type"; "open"; "include"; "exception"; "class"; "external"; "val"; "end" ]

let no_naked_mutable_global =
  mk ~name:"no-naked-mutable-global" ~severity:Error
    ~summary:"top-level ref / Hashtbl / array / buffer in lib/ without Atomic, a guard, or a pragma"
    ~applies:lib_impl
    ~message:
      "top-level mutable state in library code is shared by every domain; make it \
       Atomic, or guard every access with a mutex and say so in a pragma — a plain \
       ref is a data race the moment two domains touch it"
    (fun r ->
      let t = r.Tokenizer.tokens in
      let n = Array.length t in
      let item_end i =
        let rec next j =
          if j >= n then n
          else
            match t.(j).Tokenizer.tok with
            | Tokenizer.Ident k when t.(j).Tokenizer.col = 0 && List.mem k structure_keywords
              ->
                j
            | _ -> next (j + 1)
        in
        next (i + 1)
      in
      let findings = ref [] in
      let i = ref 0 in
      while !i < n do
        (match t.(!i).Tokenizer.tok with
        | Tokenizer.Ident ("let" | "and") when t.(!i).Tokenizer.col = 0 ->
            let stop = item_end !i in
            let k = if tk r (!i + 1) = Some (Tokenizer.Ident "rec") then !i + 2 else !i + 1 in
            (match (tk r k, tk r (k + 1)) with
            | Some (Tokenizer.Ident _), (Some (Tokenizer.Sym "=") | Some (Tokenizer.Sym ":"))
              ->
                (* A value binding. Scan only the right-hand side —
                   after the [=] that ends the head — so a [ref] in a
                   type annotation (e.g. a DLS key carrying refs,
                   which is domain-local by construction) does not
                   fire. *)
                let rec rhs_start j =
                  if j >= stop then stop
                  else if t.(j).Tokenizer.tok = Tokenizer.Sym "=" then j + 1
                  else rhs_start (j + 1)
                in
                let rec body j =
                  if j >= stop then ()
                  else
                    match t.(j).Tokenizer.tok with
                    | Tokenizer.Ident ("fun" | "function") -> ()
                    | Tokenizer.Ident "ref" when not (is_dot r (j - 1)) ->
                        findings := t.(!i).Tokenizer.line :: !findings
                    | Tokenizer.Uident m when is_dot r (j + 1) -> (
                        match tk r (j + 2) with
                        | Some (Tokenizer.Ident f) when allocates_mutable m f ->
                            findings := t.(!i).Tokenizer.line :: !findings
                        | _ -> body (j + 1))
                    | _ -> body (j + 1)
                in
                body (rhs_start (k + 1))
            | _ -> ());
            i := stop
        | _ -> incr i)
      done;
      List.rev !findings)

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
(* Whole-program (interprocedural) rules. The checks live in
   [Graph_rules] over the [Program] call graph; the catalogue lives
   here so [known_rule], pragmas and [lint --rules] cover one rule
   namespace. *)

type program_rule = { p_name : string; p_severity : severity; p_summary : string }

let program_rules =
  [
    {
      p_name = "par-unsafe-state";
      p_severity = Error;
      p_summary =
        "non-atomic mutable global reached (transitively) from a parallel region";
    };
    {
      p_name = "par-ambient-rng";
      p_severity = Error;
      p_summary = "ambient Random reachable from a parallel worker";
    };
    {
      p_name = "par-wall-clock";
      p_severity = Error;
      p_summary = "direct wall-clock read reachable from a parallel worker";
    };
    {
      p_name = "rng-stream-discipline";
      p_severity = Error;
      p_summary =
        "function taking an Rng.t also creates a second ambient stream";
    };
    {
      p_name = "dead-export";
      p_severity = Warning;
      p_summary =
        "mli-exported value no other module references, or no executable reaches";
    };
  ]

let program_rule_name name =
  List.exists (fun r -> String.equal r.p_name name) program_rules

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

let meta ~file ~line message =
  { file; line; rule = "pragma"; severity = Error; message; why = [] }

(* Parse one comment; [None] if it is not a lint pragma at all. *)
let parse_pragma ~file (c : Tokenizer.comment) : (pragma option * finding list) option =
  let text = strip_stars c.Tokenizer.c_text in
  let prefixed prefix =
    String.length text >= String.length prefix
    && String.sub text 0 (String.length prefix) = prefix
  in
  if not (prefixed "lint:") then None
  else
    let line = c.Tokenizer.c_start in
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
                {
                  p_start = c.Tokenizer.c_start;
                  p_end = c.Tokenizer.c_end;
                  p_rules = rules;
                  p_used = false;
                },
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

(* The name of the nearest enclosing top-level binding ([let]/[val]/
   [external] at column 0) on or above [line] — so a staleness warning
   can say where to look without the reader opening the file. *)
let enclosing_binding (lexed : Tokenizer.t) line =
  let t = lexed.Tokenizer.tokens in
  let best = ref None in
  Array.iteri
    (fun i p ->
      match p.Tokenizer.tok with
      | Tokenizer.Ident (("let" | "val" | "external") as kw)
        when p.Tokenizer.col = 0 && p.Tokenizer.line <= line ->
          let j =
            if tk lexed (i + 1) = Some (Tokenizer.Ident "rec") then i + 2 else i + 1
          in
          (match tk lexed j with
          | Some (Tokenizer.Ident name) when name <> "open" ->
              best := Some (kw, name)
          | _ -> ())
      | _ -> ())
    t;
  !best

type scanned = {
  s_file : string;
  s_lexed : Tokenizer.t;
  s_raw : finding list;  (** file-local rule findings, allowlist applied *)
  s_pragmas : pragma list;
  s_pragma_problems : finding list;
}

let scan_source ~file source =
  let path = normalize_path file in
  let lexed = Tokenizer.tokenize source in
  let raw =
    List.concat_map
      (fun r -> if r.applies path then r.check ~file lexed else [])
      all
  in
  let raw = List.filter (fun f -> not (allowlisted path f.rule)) raw in
  let pragmas = ref [] and pragma_findings = ref [] in
  List.iter
    (fun c ->
      match parse_pragma ~file c with
      | None -> ()
      | Some (p, probs) ->
          (match p with Some p -> pragmas := p :: !pragmas | None -> ());
          pragma_findings := !pragma_findings @ probs)
    lexed.Tokenizer.comments;
  {
    s_file = file;
    s_lexed = lexed;
    s_raw = raw;
    s_pragmas = List.rev !pragmas;
    s_pragma_problems = !pragma_findings;
  }

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
            match enclosing_binding scanned.s_lexed p.p_start with
            | Some (kw, name) -> Printf.sprintf " near `%s %s`" kw name
            | None -> ""
          in
          Some
            {
              file = scanned.s_file;
              line = p.p_start;
              rule = "pragma";
              severity = Warning;
              message =
                Printf.sprintf
                  "unused lint pragma%s (allows %s but nothing it names fires here)"
                  where
                  (String.concat ", " p.p_rules);
              why = [];
            })
      scanned.s_pragmas
  in
  List.sort compare_findings (kept @ scanned.s_pragma_problems @ unused)

let check_source ~file source =
  apply_pragmas (scan_source ~file source) ~extra:[]
