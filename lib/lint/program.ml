(* The whole-program view: per-module symbol tables from
   {!Resolve.extract}, a cross-module call graph, and the parallel
   reachability pass the interprocedural rules in {!Graph_rules} are
   judged against. Everything is deterministic: modules are processed
   in sorted key order and the BFS is FIFO, so parent chains (and
   therefore [--why] output and DOT artifacts) are host-independent. *)

type module_info = {
  m_key : string;  (* normalized path sans extension: "lib/kl/fm" *)
  m_display : string;  (* how other code spells it: "Gb_kl.Fm" *)
  m_impl : string option;  (* .ml path *)
  m_intf : string option;  (* .mli path *)
  m_extracted : Resolve.extracted;
  m_exports : (string * int) list;
}

type node = {
  n_id : int;
  n_module : string;
  n_file : string;
  n_display : string;  (* "Gb_kl.Fm.run" *)
  n_def : Resolve.def;
  mutable n_callees : int list;  (* resolved internal edges, de-duped *)
  mutable n_ext : Resolve.reference list;  (* unresolved references *)
}

type t = {
  modules : (string, module_info) Hashtbl.t;
  module_keys : string list;  (* sorted *)
  displays : (string, string) Hashtbl.t;  (* display -> module key *)
  nodes : node array;
  index : (string, int) Hashtbl.t;  (* "key::def" -> node id *)
  par_parent : int option array;
      (* BFS tree: [Some p] marks parallel-reachable, roots point to
         themselves *)
  exe_parent : int option array option;
      (* the same BFS from every definition of an executable module;
         [None] when no executable stanza is in scope *)
  used_exports : (string, unit) Hashtbl.t;  (* "key::name" referenced
                                                from another module *)
}

(* --- building the module table ------------------------------------- *)

let normalize = Rules.normalize_path

(* A dune file as s-expressions: enough of the grammar (atoms, lists,
   [;] comments, quoted strings) to read stanza kinds and fields. *)
type sexp = Atom of string | List of sexp list

let parse_sexps content =
  let n = String.length content in
  let rec items i acc =
    if i >= n || content.[i] = ')' then (List.rev acc, i + 1)
    else
      match content.[i] with
      | ' ' | '\t' | '\n' | '\r' -> items (i + 1) acc
      | ';' -> (
          match String.index_from_opt content i '\n' with
          | Some j -> items (j + 1) acc
          | None -> (List.rev acc, n))
      | '(' ->
          let sub, j = items (i + 1) [] in
          items j (List sub :: acc)
      | '"' ->
          let rec close j =
            if j >= n || content.[j] = '"' then j
            else close (if content.[j] = '\\' then j + 2 else j + 1)
          in
          let j = min n (close (i + 1)) in
          items (j + 1) (Atom (String.sub content (i + 1) (j - i - 1)) :: acc)
      | _ ->
          let j = ref i in
          while
            !j < n
            && not (String.contains " \t\n\r();\"" content.[!j])
          do
            incr j
          done;
          items !j (Atom (String.sub content i (!j - i)) :: acc)
  in
  fst (items 0 [])

(* [(library (name gb_kl))] is [("library", [("name", ["gb_kl"])])]:
   each stanza's kind and the atoms of each field. *)
let dune_stanzas content =
  let atoms = List.filter_map (function Atom a -> Some a | List _ -> None) in
  List.filter_map
    (function
      | List (Atom kind :: fields) ->
          Some
            ( kind,
              List.filter_map
                (function
                  | List (Atom f :: args) -> Some (f, atoms args) | _ -> None)
                fields )
      | _ -> None)
    (parse_sexps content)

let display_of ~lib_names dir base =
  let modname = String.capitalize_ascii base in
  match List.assoc_opt dir lib_names with
  | Some lib ->
      let lib = String.capitalize_ascii lib in
      if String.equal lib modname then lib else lib ^ "." ^ modname
  | None -> modname

(* Does module [key] belong to an [executable]/[executables] stanza?
   Those are the roots of [dead-export]'s reachability; a [test] or
   [tests] stanza never is. A stanza without a plain [(modules ...)]
   list owns its whole directory. *)
let is_executable_module dunes key =
  let dir = Filename.dirname key and base = Filename.basename key in
  List.exists
    (fun (d, stanzas) ->
      d = dir
      && List.exists
           (fun (kind, fields) ->
             (kind = "executable" || kind = "executables")
             &&
             match List.assoc_opt "modules" fields with
             | Some mods
               when List.for_all (fun m -> m <> "" && m.[0] <> ':') mods ->
                 List.mem base (List.map String.uncapitalize_ascii mods)
             | _ -> true)
           stanzas)
    dunes

let build ~dunes scans =
  let dunes =
    List.map (fun (p, c) -> (Filename.dirname (normalize p), dune_stanzas c)) dunes
  in
  let lib_names =
    List.concat_map
      (fun (dir, stanzas) ->
        List.filter_map
          (fun (kind, fields) ->
            match (kind, List.assoc_opt "name" fields) with
            | "library", Some (name :: _) -> Some (dir, name)
            | _ -> None)
          stanzas)
      dunes
  in
  let modules = Hashtbl.create 64 in
  let impls = Hashtbl.create 64 and intfs = Hashtbl.create 64 in
  List.iter
    (fun (s : Rules.scanned) ->
      let p = normalize s.Rules.s_file in
      let base = Filename.remove_extension p in
      match s.Rules.s_tree with
      | Some (Source.Structure str) -> Hashtbl.replace impls base (p, str)
      | Some (Source.Signature sg) -> Hashtbl.replace intfs base (p, sg)
      | None -> ())
    scans;
  let keys =
    List.sort_uniq String.compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) impls []
      @ Hashtbl.fold (fun k _ acc -> k :: acc) intfs [])
  in
  let displays = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let dir = Filename.dirname key and base = Filename.basename key in
      let impl = Hashtbl.find_opt impls key and intf = Hashtbl.find_opt intfs key in
      let extracted = Resolve.extract (Option.fold ~none:[] ~some:snd impl) in
      let exports = Resolve.exports (Option.fold ~none:[] ~some:snd intf) in
      let display = display_of ~lib_names dir base in
      let info =
        {
          m_key = key;
          m_display = display;
          m_impl = Option.map fst impl;
          m_intf = Option.map fst intf;
          m_extracted = extracted;
          m_exports = exports;
        }
      in
      Hashtbl.replace modules key info;
      if not (Hashtbl.mem displays display) then
        Hashtbl.add displays display key)
    keys;
  (modules, keys, displays, List.filter (is_executable_module dunes) keys)

(* --- reference resolution ------------------------------------------ *)

type target = Def of string * string | Module of string | Ext

let is_upper s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

let rec uident_prefix = function
  | x :: tl when is_upper x ->
      let pre, rest = uident_prefix tl in
      (x :: pre, rest)
  | l -> ([], l)

let dotted = String.concat "."

(* Longest prefix of the leading Uident run that names a known module:
   ["Gb_kl"; "Fm"; "run"] matches display "Gb_kl.Fm", leaving
   ["run"]. *)
let display_match displays path =
  let pre, rest = uident_prefix path in
  let rec go pre rest =
    match pre with
    | [] -> None
    | _ -> (
        match Hashtbl.find_opt displays (dotted pre) with
        | Some key -> Some (key, rest)
        | None ->
            let rpre = List.rev pre in
            go (List.rev (List.tl rpre)) (List.hd rpre :: rest))
  in
  go pre rest

let max_depth = 10

type ctx = {
  c_modules : (string, module_info) Hashtbl.t;
  c_displays : (string, string) Hashtbl.t;
  c_defsets : (string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* module key -> def-name set, so lookups are O(1) *)
  c_cache : (string, target) Hashtbl.t;
      (* "<from>|<dotted path>" -> target; resolution is pure, and
         without memoization every unresolved bare identifier would
         re-explore the open-prefix tree exponentially *)
}

let def_exists ctx key name =
  match Hashtbl.find_opt ctx.c_defsets key with
  | Some set -> Hashtbl.mem set name
  | None -> false

let sibling ctx m head =
  let key = Filename.dirname m.m_key ^ "/" ^ String.uncapitalize_ascii head in
  if key <> m.m_key && Hashtbl.mem ctx.c_modules key then Some key else None

(* [opens]: whether the open list may still be consulted. Opens apply
   only to the reference as written — once a path has been prefixed by
   an open (or an include), further open expansion is off. Without
   that restriction every unresolvable bare identifier explores
   |opens|^depth distinct prefixed paths; memoization alone cannot
   save it because each path is distinct. *)
let rec resolve ?(opens = true) ctx ~from_key path depth : target =
  if depth > max_depth then Ext
  else
    let cache_key =
      (if opens then "o|" else "-|") ^ from_key ^ "|" ^ dotted path
    in
    match Hashtbl.find_opt ctx.c_cache cache_key with
    | Some t -> t
    | None ->
        (* seed the entry with Ext so cyclic open/alias chains bottom
           out instead of recursing *)
        Hashtbl.add ctx.c_cache cache_key Ext;
        let result = resolve_uncached ~opens ctx ~from_key path depth in
        Hashtbl.replace ctx.c_cache cache_key result;
        result

and resolve_uncached ~opens ctx ~from_key path depth : target =
  match Hashtbl.find_opt ctx.c_modules from_key with
  | None -> Ext
  | Some m -> (
      match path with
      | [] -> Ext
      | [ x ] when not (is_upper x) ->
          if def_exists ctx from_key x then Def (from_key, x)
          else if opens then via_opens ctx m path depth
          else Ext
      | head :: rest when is_upper head -> (
          match List.assoc_opt head m.m_extracted.Resolve.x_aliases with
          | Some tgt when tgt <> [ head ] ->
              resolve ~opens ctx ~from_key (tgt @ rest) (depth + 1)
          | _ -> (
              match by_name ctx m path depth with
              | Some r -> r
              | None ->
                  if List.mem head m.m_extracted.Resolve.x_submodules then
                    let nm = dotted path in
                    if def_exists ctx from_key nm then Def (from_key, nm)
                    else if opens then via_opens ctx m path depth
                    else Ext
                  else if opens then via_opens ctx m path depth
                  else Ext))
      | _ -> Ext)

(* [path] named in the module table: a display name first, then a
   sibling file. A self-named alias ([module Fix_api = Fix_api]) comes
   here too, since its target is the module of that name, not itself. *)
and by_name ctx m path depth =
  match display_match ctx.c_displays path with
  | Some (key, rest) when key <> m.m_key -> Some (resolve_in ctx key rest depth)
  | _ -> (
      match path with
      | head :: rest ->
          Option.map (fun key -> resolve_in ctx key rest depth) (sibling ctx m head)
      | [] -> None)

and resolve_in ctx key rest depth =
  match rest with
  | [] -> Module key
  | _ -> (
      match Hashtbl.find_opt ctx.c_modules key with
      | None -> Ext
      | Some m -> (
          match rest with
          | [ x ] when not (is_upper x) ->
              if def_exists ctx key x then Def (key, x)
              else via_includes ctx m x depth
          | head :: rest' when is_upper head -> (
              match List.assoc_opt head m.m_extracted.Resolve.x_aliases with
              | Some tgt when tgt <> [ head ] ->
                  resolve ~opens:false ctx ~from_key:key (tgt @ rest')
                    (depth + 1)
              | Some _ -> Option.value ~default:Ext (by_name ctx m rest depth)
              | None ->
                  if List.mem head m.m_extracted.Resolve.x_submodules then
                    let nm = dotted rest in
                    if def_exists ctx key nm then Def (key, nm) else Ext
                  else Ext)
          | _ -> Ext))

and via_opens ctx m path depth =
  let rec go = function
    | [] -> Ext
    | o :: tl -> (
        match
          resolve ~opens:false ctx ~from_key:m.m_key (o @ path) (depth + 1)
        with
        | Ext -> go tl
        | r -> r)
  in
  go m.m_extracted.Resolve.x_opens

and via_includes ctx m x depth =
  let rec go = function
    | [] -> Ext
    | inc :: tl -> (
        match
          resolve ~opens:false ctx ~from_key:m.m_key (inc @ [ x ]) (depth + 1)
        with
        | Ext -> go tl
        | r -> r)
  in
  go m.m_extracted.Resolve.x_includes

(* --- the graph ----------------------------------------------------- *)

let pool_entries = [ "init"; "map"; "map_list"; "best_by" ]

let is_pool_path path =
  match List.rev path with
  | op :: "Pool" :: _ -> List.mem op pool_entries
  | _ -> false

let is_par_root node =
  List.exists is_pool_path (List.map (fun r -> r.Resolve.r_path) node.n_def.Resolve.d_refs)
  || List.exists
       (fun r -> r.Resolve.r_path = [ "Domain"; "spawn" ])
       node.n_def.Resolve.d_refs

(* FIFO BFS along [n_callees] from every node [seed] accepts. A seed is
   its own parent; unreached nodes stay [None]. *)
let bfs nodes seed =
  let parent = Array.make (Array.length nodes) None in
  let q = Queue.create () in
  Array.iter
    (fun node ->
      if seed node then begin
        parent.(node.n_id) <- Some node.n_id;
        Queue.add node.n_id q
      end)
    nodes;
  while not (Queue.is_empty q) do
    let id = Queue.take q in
    List.iter
      (fun callee ->
        if parent.(callee) = None then begin
          parent.(callee) <- Some id;
          Queue.add callee q
        end)
      nodes.(id).n_callees
  done;
  parent

(* A bare name inside submodule [Sub] (or functor body [Make]) names
   that submodule's definition first: ["Sub.Inner.f"] calling [g]
   tries ["Sub.Inner.g"], then ["Sub.g"]. The file's top level is
   left to {!resolve}. *)
let rec enclosing_def ctx key scope x =
  match String.rindex_opt scope '.' with
  | None -> None
  | Some k ->
      let scope = String.sub scope 0 k in
      let nm = scope ^ "." ^ x in
      if def_exists ctx key nm then Some (Def (key, nm))
      else enclosing_def ctx key scope x

let create ~dunes scans =
  let modules, module_keys, displays, exe_keys = build ~dunes scans in
  let defsets = Hashtbl.create 64 in
  List.iter
    (fun key ->
      let m = Hashtbl.find modules key in
      let set = Hashtbl.create 16 in
      List.iter
        (fun d -> Hashtbl.replace set d.Resolve.d_name ())
        m.m_extracted.Resolve.x_defs;
      Hashtbl.replace defsets key set)
    module_keys;
  let ctx =
    {
      c_modules = modules;
      c_displays = displays;
      c_defsets = defsets;
      c_cache = Hashtbl.create 4096;
    }
  in
  (* nodes, in sorted module order then definition order *)
  let nodes = ref [] and count = ref 0 in
  let index = Hashtbl.create 256 in
  List.iter
    (fun key ->
      let m = Hashtbl.find modules key in
      let file = Option.value m.m_impl ~default:(key ^ ".ml") in
      List.iter
        (fun d ->
          let id = !count in
          incr count;
          let node =
            {
              n_id = id;
              n_module = key;
              n_file = file;
              n_display = m.m_display ^ "." ^ d.Resolve.d_name;
              n_def = d;
              n_callees = [];
              n_ext = [];
            }
          in
          nodes := node :: !nodes;
          (* first binding of a name wins lookups — shadowing keeps
             the earlier, conservative edge *)
          let k = key ^ "::" ^ d.Resolve.d_name in
          if not (Hashtbl.mem index k) then Hashtbl.add index k id)
        m.m_extracted.Resolve.x_defs)
    module_keys;
  let nodes = Array.of_list (List.rev !nodes) in
  let used_exports = Hashtbl.create 256 in
  (* resolve every reference: edges for internal targets, raw paths
     kept for the external-pattern rules *)
  Array.iter
    (fun node ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun r ->
          let target =
            match r.Resolve.r_path with
            | [ x ] when not (is_upper x) -> (
                match enclosing_def ctx node.n_module node.n_def.Resolve.d_name x with
                | Some t -> t
                | None -> resolve ctx ~from_key:node.n_module r.Resolve.r_path 0)
            | path -> resolve ctx ~from_key:node.n_module path 0
          in
          match target with
          | Def (key, name) ->
              (match Hashtbl.find_opt index (key ^ "::" ^ name) with
              | Some id when not (Hashtbl.mem seen id) ->
                  Hashtbl.add seen id ();
                  node.n_callees <- id :: node.n_callees
              | _ -> ());
              if key <> node.n_module then
                Hashtbl.replace used_exports (key ^ "::" ^ name) ()
          | Module key ->
              if key <> node.n_module then
                Hashtbl.replace used_exports (key ^ "::<module>") ()
          | Ext ->
              if List.length r.Resolve.r_path > 1 then
                node.n_ext <- r :: node.n_ext)
        node.n_def.Resolve.d_refs;
      node.n_callees <- List.rev node.n_callees;
      node.n_ext <- List.rev node.n_ext)
    nodes;
  (* includes re-export: everything the included module exports is
     used by the including module *)
  List.iter
    (fun key ->
      let m = Hashtbl.find modules key in
      List.iter
        (fun inc ->
          match resolve ctx ~from_key:key inc 0 with
          | Module ikey | Def (ikey, _) ->
              let im = Hashtbl.find modules ikey in
              List.iter
                (fun (nm, _) ->
                  Hashtbl.replace used_exports (ikey ^ "::" ^ nm) ())
                im.m_exports
          | Ext -> ())
        m.m_extracted.Resolve.x_includes)
    module_keys;
  (* parallel reachability: from every Pool/Domain fan-out site, a
     root's whole body conservatively inside the region; liveness: from
     every definition of an executable *)
  let par_parent = bfs nodes is_par_root in
  let exe_parent =
    if exe_keys = [] then None
    else Some (bfs nodes (fun n -> List.mem n.n_module exe_keys))
  in
  {
    modules;
    module_keys;
    displays;
    nodes;
    index;
    par_parent;
    exe_parent;
    used_exports;
  }

(* --- queries ------------------------------------------------------- *)

let nodes t = t.nodes

let module_infos t =
  List.map (fun k -> Hashtbl.find t.modules k) t.module_keys

let parallel_reachable t id = t.par_parent.(id) <> None

let chain t id =
  match t.par_parent.(id) with
  | None -> []
  | Some _ ->
      let rec up id acc =
        match t.par_parent.(id) with
        | Some p when p <> id -> up p (t.nodes.(id).n_display :: acc)
        | _ -> t.nodes.(id).n_display :: acc
      in
      up id []

let export_used t ~module_key ~name =
  Hashtbl.mem t.used_exports (module_key ^ "::" ^ name)
  || Hashtbl.mem t.used_exports (module_key ^ "::<module>")

let executable_reachable t ~module_key ~name =
  match (t.exe_parent, Hashtbl.find_opt t.index (module_key ^ "::" ^ name)) with
  | Some parent, Some id -> parent.(id) <> None
  | None, _ | _, None -> true

let find_symbol t symbol =
  let matches n =
    String.equal n.n_display symbol
    || (String.length n.n_display > String.length symbol
       && String.ends_with ~suffix:("." ^ symbol) n.n_display)
  in
  let all = Array.to_list t.nodes in
  match List.find_opt (fun n -> matches n && parallel_reachable t n.n_id) all with
  | Some n -> Some n
  | None -> List.find_opt matches all

let stats t =
  let par =
    Array.fold_left
      (fun acc n -> if parallel_reachable t n.n_id then acc + 1 else acc)
      0 t.nodes
  in
  let edges =
    Array.fold_left (fun acc n -> acc + List.length n.n_callees) 0 t.nodes
  in
  (List.length t.module_keys, Array.length t.nodes, edges, par)

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph gbisect_calls {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  Array.iter
    (fun n ->
      let attrs =
        if t.par_parent.(n.n_id) = Some n.n_id then
          ", style=filled, fillcolor=orange"  (* fan-out site *)
        else if parallel_reachable t n.n_id then
          ", style=filled, fillcolor=mistyrose"
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"%s];\n" n.n_id n.n_display attrs))
    t.nodes;
  Array.iter
    (fun n ->
      List.iter
        (fun c -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" n.n_id c))
        n.n_callees)
    t.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
