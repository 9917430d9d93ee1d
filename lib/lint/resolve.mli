(** Definition/reference extraction for whole-program analysis.

    Built on {!Tokenizer.t}, not a parser: structure items are
    recognised by keyword-at-item-column, submodule [struct]/[sig]
    bodies by pushing a scope whose closing [end] is matched by
    column. This handles ocamlformat-shaped code (which the repo's own
    formatting is); hand-wrapped code degrades {i conservatively} —
    references are over-collected, never dropped, so reachability can
    only over-approximate. The caveats are documented in LINTING.md. *)

type reference = {
  r_path : string list;
      (** ["Gb_par"; "Pool"; "map"] or a bare ["helper"]; module path
          components first, the optional value component last *)
  r_line : int;
}

type def = {
  d_name : string;  (** qualified with the submodule path: ["Sub.f"] *)
  d_line : int;
  d_rng_param : bool;
      (** the binding head names a parameter [rng] or annotates one
          as [Rng.t] — the marker for RNG-stream kernels *)
  d_mutable_state : bool;
      (** the right-hand side allocates a bare [ref] or a mutable
          container ({!Rules.allocates_mutable})
          before any [fun] — a module-init mutable cell, the shape
          [no-naked-mutable-global] fires on *)
  d_refs : reference list;
}

type extracted = {
  x_defs : def list;
  x_aliases : (string * string list) list;
      (** [module K = Gb_kl.Kl] becomes [("K", ["Gb_kl"; "Kl"])] *)
  x_opens : string list list;
      (** [open]/[let open]/[M.(...)] targets, file-wide (scoped opens
          are widened to the file — conservative) *)
  x_includes : string list list;
  x_submodules : string list;  (** qualified submodule names *)
}

val extract : Tokenizer.t -> extracted

val exports : Tokenizer.t -> (string * int) list
(** [val]/[external] names (with line) declared by an interface, a
    plain [module X : sig ... end] contributing ["X.name"]. Members of
    a module type or of a functor's parameter or result signature are
    left out: their uses go through functor applications the extractor
    cannot attribute. *)

val is_operator_name : string -> bool
(** Operator defs/exports are named ["( <op> )"]; their uses appear as
    bare symbols the reference extractor cannot attribute, so rules
    like [dead-export] must skip them. *)
