(* Lightweight definition/reference extraction on top of the token
   stream: enough structure to build a per-module symbol table and a
   cross-module call graph, not a parser. The companion notes on what
   is and is not resolved live in LINTING.md ("conservatism"). *)

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

let keywords =
  [
    "let"; "rec"; "and"; "in"; "fun"; "function"; "match"; "with"; "if"; "then";
    "else"; "begin"; "end"; "module"; "open"; "include"; "type"; "val";
    "exception"; "external"; "mutable"; "of"; "when"; "as"; "try"; "while";
    "do"; "done"; "for"; "to"; "downto"; "assert"; "lazy"; "new"; "object";
    "sig"; "struct"; "inherit"; "initializer"; "land"; "lor"; "lxor"; "lsl";
    "lsr"; "asr"; "mod"; "or"; "true"; "false"; "method"; "class"; "constraint";
    "functor"; "nonrec"; "private"; "virtual";
  ]

let is_keyword w = List.mem w keywords

(* Keywords that open a structure item when they appear at a scope's
   item column. *)
let item_keywords =
  [ "let"; "and"; "module"; "open"; "include"; "type"; "exception"; "external";
    "val"; "class" ]

let is_item_keyword w = List.mem w item_keywords

type scope = {
  sc_path : string list;  (* submodule path, outermost first *)
  sc_col : int;  (* column of the [module] keyword; -1 at the top *)
  mutable sc_item_col : int option;  (* column of the scope's items *)
  sc_opaque : bool;  (* in an interface: a module type or functor signature *)
}

type state = {
  lexed : Tokenizer.t;
  n : int;
  mutable scopes : scope list;  (* innermost first; never empty *)
  mutable defs : def list;  (* reversed *)
  mutable aliases : (string * string list) list;
  mutable opens : string list list;
  mutable includes : string list list;
  mutable submodules : string list;
  mutable last_item_was_let : bool;
}

let tok st i =
  if i >= 0 && i < st.n then Some st.lexed.Tokenizer.tokens.(i).Tokenizer.tok
  else None

let pos st i = st.lexed.Tokenizer.tokens.(i)
let line st i = (pos st i).Tokenizer.line
let col st i = (pos st i).Tokenizer.col

let scope st = List.hd st.scopes

(* Is token [i] a structure item head for the current scope? The top
   scope's items sit at column 0; a submodule's item column is learned
   from the first item keyword seen after its [struct]. *)
let at_item_col st i =
  match tok st i with
  | Some (Tokenizer.Ident w) when is_item_keyword w -> (
      let sc = scope st in
      match sc.sc_item_col with
      | Some c -> col st i = c
      | None ->
          if col st i > sc.sc_col then begin
            sc.sc_item_col <- Some (col st i);
            true
          end
          else false)
  | _ -> false

(* A scope-closing [end]: aligned with the [module] keyword that opened
   the scope (the repo's formatting invariant; LINTING.md documents the
   conservatism). *)
let at_scope_end st i =
  match tok st i with
  | Some (Tokenizer.Ident "end") ->
      List.length st.scopes > 1 && col st i = (scope st).sc_col
  | _ -> false

let item_boundary st i = at_item_col st i || at_scope_end st i

(* First item boundary strictly after [i]. *)
let next_boundary st i =
  let rec go j = if j >= st.n || item_boundary st j then j else go (j + 1) in
  go (i + 1)

let qualified name sc =
  match sc.sc_path with [] -> name | p -> String.concat "." p ^ "." ^ name

(* --- module items -------------------------------------------------- *)

(* After [module X], find what follows the [=]: [struct]/[sig] (open a
   scope), a module path (an alias — functor applications keep the
   path up to the argument list), or anything else (skip). *)
type module_shape =
  | Opens_scope of int  (* token index just after struct/sig *)
  | Alias of string list * int
  | Other

let module_shape st j stop =
  let rec find_eq k depth =
    if k >= stop then None
    else
      match tok st k with
      | Some (Tokenizer.Sym "(") -> find_eq (k + 1) (depth + 1)
      | Some (Tokenizer.Sym ")") -> find_eq (k + 1) (depth - 1)
      | Some (Tokenizer.Sym "=") when depth = 0 -> Some (k + 1)
      | Some (Tokenizer.Ident ("struct" | "sig")) when depth = 0 ->
          (* [module X : sig ... end] in an interface — treat the
             constraint body as the scope *)
          Some k
      | _ -> find_eq (k + 1) depth
  in
  match find_eq j 0 with
  | None -> Other
  | Some k -> (
      let rec after_functor k =
        match tok st k with
        | Some (Tokenizer.Ident "functor") ->
            (* skip [(A : S) ->] groups *)
            let rec skip k depth =
              match tok st k with
              | Some (Tokenizer.Sym "(") -> skip (k + 1) (depth + 1)
              | Some (Tokenizer.Sym ")") -> skip (k + 1) (depth - 1)
              | Some (Tokenizer.Sym ">")
                when depth = 0 && tok st (k - 1) = Some (Tokenizer.Sym "-") ->
                  after_functor (k + 1)
              | Some _ -> skip (k + 1) depth
              | None -> Other
            in
            skip (k + 1) 0
        | Some (Tokenizer.Ident ("struct" | "sig")) -> Opens_scope (k + 1)
        | Some (Tokenizer.Uident u) ->
            let rec path j acc =
              match (tok st j, tok st (j + 1)) with
              | Some (Tokenizer.Sym "."), Some (Tokenizer.Uident u') ->
                  path (j + 2) (u' :: acc)
              | _ -> (List.rev acc, j)
            in
            let p, j = path (k + 1) [ u ] in
            Alias (p, j)
        | _ -> Other
      in
      after_functor k)

(* --- reference collection inside a body ---------------------------- *)

(* Tokens after which a lowercase ident is a binder or a label, not a
   use. [fun x y ->] only shields the first binder; later ones are
   collected, do not resolve to anything, and fall away — the cost of
   not building scopes. A [~x]/[?x] label is a use unless a [:] follows:
   [f ~x] passes the variable [x]. *)
let binder_context = [ "let"; "and"; "rec"; "fun"; "as"; "method"; "val"; "external" ]

let collect_refs st start stop =
  let refs = ref [] in
  let add path ln = refs := { r_path = path; r_line = ln } :: !refs in
  (* Is the token at [i] reached through a module-path dot? The
     tokenizer emits single-character symbols, so [x +. Rng.float]
     puts a bare Sym "." right before [Rng]; only a dot whose left
     side is a module expression ([Uident] or a functor-application
     [)]) continues a path. *)
  let after_path_dot i =
    tok st (i - 1) = Some (Tokenizer.Sym ".")
    &&
    match tok st (i - 2) with
    | Some (Tokenizer.Uident _) | Some (Tokenizer.Sym ")") -> true
    | _ -> false
  in
  (* [let module P = M in] aliases met so far in this body; a path
     through one is rewritten to [M]'s, as a top-level [module P = M]
     resolves it *)
  let locals = ref [] in
  let expand = function
    | head :: rest as p -> (
        match List.assoc_opt head !locals with Some tgt -> tgt @ rest | None -> p)
    | [] -> []
  in
  let i = ref start in
  while !i < stop do
    (match tok st !i with
    | Some (Tokenizer.Ident "let")
      when tok st (!i + 1) = Some (Tokenizer.Ident "module") -> (
        (* [let module P = M in ...]: not a use of all of [M]; calls
           through [P] resolve to what they name *)
        match tok st (!i + 2) with
        | Some (Tokenizer.Uident x) -> (
            match module_shape st (!i + 3) stop with
            | Alias (path, j) ->
                locals := (x, expand path) :: !locals;
                i := j
            | Opens_scope _ | Other -> i := !i + 3)
        | _ -> i := !i + 2)
    | Some (Tokenizer.Ident "let")
      when tok st (!i + 1) = Some (Tokenizer.Ident "open") ->
        (* [let open M in ...]: conservatively open M for the whole
           file (scope tracking would buy little here). *)
        let rec path j acc =
          match tok st j with
          | Some (Tokenizer.Uident u) -> (
              match tok st (j + 1) with
              | Some (Tokenizer.Sym ".") -> path (j + 2) (u :: acc)
              | _ -> (List.rev (u :: acc), j + 1))
          | _ -> (List.rev acc, j)
        in
        let p, j = path (!i + 2) [] in
        if p <> [] then st.opens <- expand p :: st.opens;
        i := j
    | Some (Tokenizer.Uident u) when not (after_path_dot !i) ->
        (* A module path: Uident (. Uident)* [. ident]. *)
        let ln = line st !i in
        let rec walk j acc =
          match (tok st j, tok st (j + 1)) with
          | Some (Tokenizer.Sym "."), Some (Tokenizer.Uident u') ->
              walk (j + 2) (u' :: acc)
          | Some (Tokenizer.Sym "."), Some (Tokenizer.Ident id)
            when not (is_keyword id) ->
              (List.rev (id :: acc), j + 2)
          | Some (Tokenizer.Sym "."), Some (Tokenizer.Sym "(") ->
              (* [M.( ... )]: a local open. *)
              st.opens <- expand (List.rev acc) :: st.opens;
              (List.rev acc, j + 2)
          | _ -> (List.rev acc, j)
        in
        let p, j = walk (!i + 1) [ u ] in
        add (expand p) ln;
        i := j
    | Some (Tokenizer.Ident id) when not (is_keyword id) ->
        let prev_binder =
          match tok st (!i - 1) with
          | Some (Tokenizer.Ident k) -> List.mem k binder_context
          | Some (Tokenizer.Sym ("~" | "?")) -> tok st (!i + 1) = Some (Tokenizer.Sym ":")
          | _ -> false
        in
        if (not prev_binder) && not (after_path_dot !i) then
          add [ id ] (line st !i);
        incr i
    | _ -> incr i)
  done;
  List.rev !refs

(* References in the defaults of a binding head's optional parameters,
   [?(x = e)]: code the binding runs, like its body. *)
let default_refs st j body =
  let rec group k depth eq =
    match tok st k with
    | None -> (eq, k)
    | Some (Tokenizer.Sym "(") -> group (k + 1) (depth + 1) eq
    | Some (Tokenizer.Sym ")") when depth = 1 -> (eq, k)
    | Some (Tokenizer.Sym ")") -> group (k + 1) (depth - 1) eq
    | Some (Tokenizer.Sym "=") when depth = 1 && eq < 0 -> group (k + 1) depth k
    | Some _ -> group (k + 1) depth eq
  in
  let rec go k acc =
    if k >= body then acc
    else if tok st k = Some (Tokenizer.Sym "?") && tok st (k + 1) = Some (Tokenizer.Sym "(")
    then
      let eq, close = group (k + 2) 1 (-1) in
      go (close + 1) (if eq < 0 then acc else acc @ collect_refs st (eq + 1) close)
    else go (k + 1) acc
  in
  go j []

(* --- mutable-state shape of a right-hand side ---------------------- *)

(* Mirrors [no-naked-mutable-global]: a bare [ref] or a mutable
   container's constructor before the first [fun]/[function] means the
   binding allocates a mutable cell at module init. *)
let rhs_mutable st start stop =
  let rec go j =
    if j >= stop then false
    else
      match tok st j with
      | Some (Tokenizer.Ident ("fun" | "function")) -> false
      | Some (Tokenizer.Ident "ref")
        when tok st (j - 1) <> Some (Tokenizer.Sym ".") ->
          true
      | Some (Tokenizer.Uident m) when tok st (j + 1) = Some (Tokenizer.Sym ".") -> (
          match tok st (j + 2) with
          | Some (Tokenizer.Ident f) when Rules.allocates_mutable m f -> true
          | _ -> go (j + 1))
      | _ -> go (j + 1)
  in
  go start

(* --- let-item heads ------------------------------------------------ *)

(* Past any [[@...]] attribute groups from [j]: [let[@inline] f] binds
   [f], not [inline]. *)
let rec skip_attributes st j =
  match (tok st j, tok st (j + 1)) with
  | Some (Tokenizer.Sym "["), Some (Tokenizer.Sym "@") ->
      let rec close k depth =
        match tok st k with
        | None -> k
        | Some (Tokenizer.Sym "[") -> close (k + 1) (depth + 1)
        | Some (Tokenizer.Sym "]") when depth = 1 -> k + 1
        | Some (Tokenizer.Sym "]") -> close (k + 1) (depth - 1)
        | Some _ -> close (k + 1) depth
      in
      skip_attributes st (close (j + 1) 1)
  | _ -> j

(* Scan a binding head from [j] (after [let [rec]]) to the [=] that
   starts the body, at bracket depth 0. Returns the bound names, the
   body start, whether the head looks like it receives an [Rng.t] (a
   parameter literally named [rng], or an [Rng.t] annotation), and
   whether the binding has parameters at all — [let f x = ref 0]
   allocates per call, [let cell = ref 0] allocates module state, and
   only the latter is [d_mutable_state] material. Parameters live
   between the bound name and the depth-0 [:] (or the [=] when there
   is no return annotation). *)
let scan_head st j stop =
  let names = ref [] and rng = ref false and params = ref false in
  let depth = ref 0 in
  let annotated = ref false in
  let body = ref stop in
  (* operator definition: [let ( <op> ) args = ...] *)
  let j =
    match (tok st j, tok st (j + 1)) with
    | Some (Tokenizer.Sym "("), Some (Tokenizer.Sym _) ->
        let buf = Buffer.create 8 in
        let rec op k =
          match tok st k with
          | Some (Tokenizer.Sym ")") ->
              names := [ "( " ^ Buffer.contents buf ^ " )" ];
              k + 1
          | Some (Tokenizer.Sym s) ->
              Buffer.add_string buf s;
              op (k + 1)
          | Some (Tokenizer.Ident w) ->
              (* [let ( land ) = ...] — keyword operators *)
              Buffer.add_string buf w;
              op (k + 1)
          | _ -> k
        in
        op (j + 1)
    | _ -> j
  in
  let k = ref j in
  (try
     while !k < stop do
       let t = tok st !k in
       (match t with
       | Some (Tokenizer.Sym "=") when !depth = 0 ->
           body := !k + 1;
           raise Exit
       | Some (Tokenizer.Sym ":") when !depth = 0 -> annotated := true
       | _ -> if !names <> [] && not !annotated then params := true);
       (match t with
       | Some (Tokenizer.Sym ("(" | "[" | "{")) -> incr depth
       | Some (Tokenizer.Sym (")" | "]" | "}")) -> decr depth
       | Some (Tokenizer.Ident id)
         when (not (is_keyword id)) && !names = [] && id <> "_" ->
           (* the first ident is the bound name (or the first name of a
              tuple/record pattern — good enough for the graph) *)
           names := [ id ]
       | Some (Tokenizer.Ident "rng") when not !annotated ->
           (* a parameter named rng — the bound name itself (caught
              above) and anything after the return-type colon do not
              make this an Rng-consuming kernel *)
           rng := true
       | Some (Tokenizer.Uident "Rng")
         when (not !annotated)
              && tok st (!k + 1) = Some (Tokenizer.Sym ".")
              && tok st (!k + 2) = Some (Tokenizer.Ident "t") ->
           rng := true
       | _ -> ());
       incr k
     done
   with Exit -> ());
  (!names, !body, !rng, !params)

(* --- the extractor ------------------------------------------------- *)

let extract (lexed : Tokenizer.t) =
  let st =
    {
      lexed;
      n = Array.length lexed.Tokenizer.tokens;
      scopes = [ { sc_path = []; sc_col = -1; sc_item_col = Some 0; sc_opaque = false } ];
      defs = [];
      aliases = [];
      opens = [];
      includes = [];
      submodules = [];
      last_item_was_let = false;
    }
  in
  let add_def name ln ~rng ~mut ~refs =
    st.defs <-
      {
        d_name = qualified name (scope st);
        d_line = ln;
        d_rng_param = rng;
        d_mutable_state = mut;
        d_refs = refs;
      }
      :: st.defs
  in
  let read_path j =
    let rec go j acc =
      match tok st j with
      | Some (Tokenizer.Uident u) -> (
          match tok st (j + 1) with
          | Some (Tokenizer.Sym ".") -> go (j + 2) (u :: acc)
          | _ -> (List.rev (u :: acc), j + 1))
      | _ -> (List.rev acc, j)
    in
    go j []
  in
  let i = ref 0 in
  while !i < st.n do
    if at_scope_end st !i then begin
      st.scopes <- List.tl st.scopes;
      incr i
    end
    else if at_item_col st !i then begin
      let stop = next_boundary st !i in
      let ln = line st !i in
      (match tok st !i with
      | Some (Tokenizer.Ident ("let" | "and" as kw)) ->
          let is_let = kw = "let" in
          if is_let || st.last_item_was_let then begin
            let j = skip_attributes st (!i + 1) in
            let j =
              if tok st j = Some (Tokenizer.Ident "rec") then
                skip_attributes st (j + 1)
              else j
            in
            let names, body, rng, params = scan_head st j stop in
            let refs = default_refs st j body @ collect_refs st body stop in
            let mut = (not params) && rhs_mutable st body stop in
            (match names with
            | [] ->
                (* [let () = ...] / [let _ = ...]: module-init code *)
                add_def (Printf.sprintf "<init:%d>" ln) ln ~rng ~mut ~refs
            | names -> List.iter (fun nm -> add_def nm ln ~rng ~mut ~refs) names);
            st.last_item_was_let <- true
          end;
          i := stop
      | Some (Tokenizer.Ident "module") ->
          st.last_item_was_let <- false;
          let j =
            if tok st (!i + 1) = Some (Tokenizer.Ident "type") then !i + 2
            else !i + 1
          in
          (match tok st j with
          | Some (Tokenizer.Uident x) -> (
              (* find where this item could end: the next boundary
                 seen from the *current* scope (a [struct] body is
                 handled by pushing a scope instead) *)
              match module_shape st (j + 1) st.n with
              | Opens_scope body_start ->
                  let sc = scope st in
                  st.submodules <- qualified x sc :: st.submodules;
                  st.scopes <-
                    {
                      sc_path = sc.sc_path @ [ x ];
                      sc_col = col st !i;
                      sc_item_col = None;
                      sc_opaque = false;
                    }
                    :: st.scopes;
                  i := body_start
              | Alias (path, j') ->
                  st.aliases <- (x, path) :: st.aliases;
                  i := max j' stop
              | Other -> i := stop)
          | _ -> i := stop)
      | Some (Tokenizer.Ident "open") ->
          st.last_item_was_let <- false;
          let p, _ = read_path (!i + 1) in
          if p <> [] then st.opens <- p :: st.opens;
          i := stop
      | Some (Tokenizer.Ident "include") ->
          st.last_item_was_let <- false;
          let p, _ = read_path (!i + 1) in
          if p <> [] then begin
            st.includes <- p :: st.includes;
            st.opens <- p :: st.opens
          end;
          i := stop
      | Some (Tokenizer.Ident "external") ->
          st.last_item_was_let <- false;
          (match tok st (!i + 1) with
          | Some (Tokenizer.Ident name) when not (is_keyword name) ->
              add_def name ln ~rng:false ~mut:false ~refs:[]
          | _ -> ());
          i := stop
      | Some (Tokenizer.Ident ("type" | "exception" | "val" | "class")) ->
          st.last_item_was_let <- false;
          i := stop
      | _ -> i := stop)
    end
    else incr i
  done;
  {
    x_defs = List.rev st.defs;
    x_aliases = List.rev st.aliases;
    x_opens = List.rev st.opens;
    x_includes = List.rev st.includes;
    x_submodules = List.rev st.submodules;
  }

(* --- interface exports --------------------------------------------- *)

(* [val]/[external] names from an .mli, with submodule signatures
   ([module X : sig ... end]) contributing ["X.name"]. Operator
   exports are kept (prefixed "( ") so callers can choose to skip
   them: their uses are symbols the reference extractor cannot see. *)
let exports (lexed : Tokenizer.t) =
  let st =
    {
      lexed;
      n = Array.length lexed.Tokenizer.tokens;
      scopes = [ { sc_path = []; sc_col = -1; sc_item_col = Some 0; sc_opaque = false } ];
      defs = [];
      aliases = [];
      opens = [];
      includes = [];
      submodules = [];
      last_item_was_let = false;
    }
  in
  let out = ref [] in
  let i = ref 0 in
  while !i < st.n do
    if at_scope_end st !i then begin
      st.scopes <- List.tl st.scopes;
      incr i
    end
    else if at_item_col st !i then begin
      let stop = next_boundary st !i in
      let ln = line st !i in
      (match tok st !i with
      | Some (Tokenizer.Ident ("val" | "external")) when (scope st).sc_opaque -> i := stop
      | Some (Tokenizer.Ident ("val" | "external")) ->
          (match (tok st (!i + 1), tok st (!i + 2)) with
          | Some (Tokenizer.Ident name), _ when not (is_keyword name) ->
              out := (qualified name (scope st), ln) :: !out
          | Some (Tokenizer.Sym "("), Some _ ->
              (* operator export *)
              let buf = Buffer.create 8 in
              let rec op k =
                match tok st k with
                | Some (Tokenizer.Sym ")") -> ()
                | Some (Tokenizer.Sym s) ->
                    Buffer.add_string buf s;
                    op (k + 1)
                | Some (Tokenizer.Ident w) ->
                    Buffer.add_string buf w;
                    op (k + 1)
                | _ -> ()
              in
              op (!i + 2);
              out := (qualified ("( " ^ Buffer.contents buf ^ " )") (scope st), ln) :: !out
          | _ -> ());
          i := stop
      | Some (Tokenizer.Ident "module") -> (
          let j =
            if tok st (!i + 1) = Some (Tokenizer.Ident "type") then !i + 2
            else !i + 1
          in
          match tok st j with
          | Some (Tokenizer.Uident x) -> (
              match module_shape st (j + 1) st.n with
              | Opens_scope body_start ->
                  let sc = scope st in
                  (* only [module X : sig] is plain; a module type or a
                     functor's parameter or result is opaque *)
                  let plain =
                    j = !i + 1
                    && tok st (j + 1) = Some (Tokenizer.Sym ":")
                    && tok st (j + 2) = Some (Tokenizer.Ident "sig")
                  in
                  st.scopes <-
                    {
                      sc_path = sc.sc_path @ [ x ];
                      sc_col = col st !i;
                      sc_item_col = None;
                      sc_opaque = sc.sc_opaque || not plain;
                    }
                    :: st.scopes;
                  i := body_start
              | Alias _ | Other -> i := stop)
          | _ -> i := stop)
      | _ -> i := stop)
    end
    else incr i
  done;
  List.rev !out

let is_operator_name name =
  let base =
    match String.rindex_opt name '.' with
    | Some k -> String.sub name (k + 1) (String.length name - k - 1)
    | None -> name
  in
  String.length base > 0 && base.[0] = '('
