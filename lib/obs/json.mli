(** A deliberately small JSON tree, printer and parser.

    [Gb_obs] must stay dependency-free (it is linked into every
    algorithm core), so it carries its own JSON support instead of
    pulling in yojson. The printer emits compact one-line JSON (what the
    Chrome [trace_event] sink, the [telemetry.jsonl] writer and the
    serving protocol need); the parser reads the store and the wire.
    Both copy runs of plain bytes at once and print numbers without a
    format interpreter. A [\uXXXX] escape takes exactly four hex digits,
    and a surrogate pair decodes to one code point's UTF-8.

    Non-finite floats have no JSON spelling; {!to_string} renders them
    as [null], which is what trace viewers expect. Writers that must
    never launder [nan]/[inf] into durable data (the result store)
    pass [~strict:true] to get a rejection instead. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?strict:bool -> t -> string
(** Compact single-line rendering (no trailing newline). With
    [~strict:true] (default [false]) a non-finite [Float] raises
    [Invalid_argument] instead of rendering as [null]. *)

val of_string : string -> t
(** Parse a single JSON value. Arrays and objects may nest 512 deep.
    @raise Failure on malformed input, deeper nesting or trailing
    garbage. *)

val member : string -> t -> t option
(** [member key json] looks a key up in an [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** Numeric accessor accepting both [Int] and [Float]. *)
