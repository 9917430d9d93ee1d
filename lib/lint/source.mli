(** The lint's front end: OCaml's own parser ([compiler-libs.common]).
    Rules read the tree, so comments and literals are never code; the
    comments are kept on the side for the suppression pragmas. *)

type tree = Structure of Parsetree.structure | Signature of Parsetree.signature

type t = {
  tree : (tree, int * string) result;  (** [Error (line, message)]: no parse *)
  comments : (string * int * int) list;
      (** in source order: the text between the delimiters (a doc
          comment's starts with ['*']), first and last line *)
}

val parse : file:string -> string -> t
(** An interface when [file] ends in [.mli], else an implementation.
    Prints nothing: compiler warnings are off. *)

val line : Location.t -> int
(** The 1-based line a location starts on. *)

val path : Longident.t -> string list
(** [Gb_par.Pool.map] is [["Gb_par"; "Pool"; "map"]]; [F(X).t] is
    [["F"; "t"]]. *)

val value_name : string -> string
(** [value_name "+"] is ["( + )"]; an identifier is itself. *)

val binding_names : Parsetree.value_binding -> string list
(** The variables a binding's pattern binds, in source order, named by
    {!value_name}; [[]] for [let () = ...]. *)
