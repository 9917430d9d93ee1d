(** Definition/reference extraction for whole-program analysis, on the
    parse tree. References are over-collected, never dropped, so
    reachability can only over-approximate; LINTING.md has the caveats. *)

type reference = {
  r_path : string list;
      (** ["Gb_par"; "Pool"; "map"] or a bare ["helper"]; module path
          components first, the optional value component last *)
  r_line : int;
}

type def = {
  d_name : string;
      (** a bound variable qualified with its submodule path
          (["Sub.f"]); an operator is ["( op )"], a binding without a
          variable ["<init:LINE>"] *)
  d_line : int;
  d_rng_param : bool;
      (** a parameter is named [rng] or annotated [Rng.t] — the marker
          for RNG-stream kernels *)
  d_mutable_state : bool;  (** {!Rules.allocates_at_init} *)
  d_refs : reference list;
      (** every value path in the binding's code and every module path
          of a module expression or local open; not record fields,
          type paths, constructors or pattern binders *)
}

type extracted = {
  x_defs : def list;
  x_aliases : (string * string list) list;
      (** [module K = Gb_kl.Kl] becomes [("K", ["Gb_kl"; "Kl"])] *)
  x_opens : string list list;
      (** [open]/[let open]/[M.(...)] targets, file-wide (scoped opens
          are widened to the file — conservative) *)
  x_includes : string list list;
  x_submodules : string list;  (** qualified submodule and functor names *)
}

val extract : Parsetree.structure -> extracted

val exports : Parsetree.signature -> (string * int) list
(** [val]/[external] names (with line) declared by an interface, a
    plain [module X : sig ... end] contributing ["X.name"]. Members of
    a module type or of a functor's parameter or result signature are
    left out: their uses go through functor applications the extractor
    cannot attribute. *)

val is_operator_name : string -> bool
(** Operator defs/exports are named ["( <op> )"]; rules like
    [dead-export] skip them. *)
