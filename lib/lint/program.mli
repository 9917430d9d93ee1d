(** Whole-program symbol tables, call graph, and reachability — from
    parallel fan-out sites and from executables — for
    [gbisect_lint --program].

    Built from scanned sources ({!Rules.scan_source}, whose parse trees
    it reads) and the [dune] files that supply the display names other
    modules use ([lib/kl/fm.ml] under library [gb_kl] is spelled
    [Gb_kl.Fm]). Reference resolution is conservative in the direction
    that matters: edges may be over-added (widened [let open] scopes,
    shadowed names keeping the earlier binding) but a resolvable call
    is never dropped, so "reachable from a parallel region"
    over-approximates and the race rules never miss by construction of
    the graph. *)

type module_info = {
  m_key : string;  (** normalized path sans extension: ["lib/kl/fm"] *)
  m_display : string;  (** ["Gb_kl.Fm"] *)
  m_impl : string option;
  m_intf : string option;
  m_extracted : Resolve.extracted;
  m_exports : (string * int) list;  (** from the [.mli], with lines *)
}

type node = {
  n_id : int;
  n_module : string;
  n_file : string;
  n_display : string;  (** ["Gb_kl.Fm.run"] *)
  n_def : Resolve.def;
  mutable n_callees : int list;
  mutable n_ext : Resolve.reference list;
      (** references that resolved outside the program (stdlib, Unix,
          ...) — the ambient-effect rules pattern-match these, and
          report at the reference's own line *)
}

type t

val create : dunes:(string * string) list -> Rules.scanned list -> t
(** [dunes] are [(path, content)] pairs. A file that did not parse
    contributes nothing. Deterministic for a given source list: modules
    in sorted key
    order, FIFO reachability — rerunning on another host yields the
    same graph, chains, and DOT bytes. *)

val nodes : t -> node array
val module_infos : t -> module_info list

val parallel_reachable : t -> int -> bool
(** Is this node transitively referenced from a [Pool.map] /
    [Pool.map_list] / [Pool.init] / [Pool.best_by] / [Domain.spawn]
    fan-out site? The fan-out function itself counts: its whole body
    is conservatively treated as inside the region. *)

val chain : t -> int -> string list
(** The BFS parent chain (fan-out site first, this node last) that
    witnesses reachability; [[]] when not reachable. This is what
    [--why] prints. *)

val export_used : t -> module_key:string -> name:string -> bool
(** Is the export referenced from any {i other} module (directly, or
    via an [include] of the whole module)? *)

val executable_reachable : t -> module_key:string -> name:string -> bool
(** Is the definition behind the export reached from some module of an
    [executable]/[executables] dune stanza ([test]/[tests] stanzas are
    never roots)? [true] when no executable stanza is in scope, or
    when the name has no definition in the graph to judge. *)

val find_symbol : t -> string -> node option
(** For [--why]: match by full display name or by [.]-suffix
    (["solve"] finds ["Gbisect.solve"]). Prefers a parallel-reachable
    match when several share a suffix. *)

val stats : t -> int * int * int * int
(** [(modules, defs, edges, parallel_reachable)] — for the stderr
    summary line. *)

val to_dot : t -> string
(** Graphviz rendering; fan-out sites orange, reachable nodes rose. *)

val is_pool_path : string list -> bool
(** Does a raw reference path denote a [Pool] fan-out entry point
    (e.g. ["Gb_par"; "Pool"; "map"])? Exposed for tests. *)
