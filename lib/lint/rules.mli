(** The determinism & domain-safety rule set.

    Every rule here guards an invariant that the reproduction's
    headline guarantees rest on — bit-identical results at any
    [--jobs] and byte-identical resumed runs — or the domain-safety
    discipline that makes the parallel layer sound. The catalogue,
    with the rationale for each rule, lives in LINTING.md.

    Rules read the parse tree ({!Source}), so they never fire inside
    comments, doc comments or string/char literals. Findings can be
    silenced two ways:

    - the built-in {!allowlist} exempts the module that {i owns} an
      effect (e.g. [lib/prng] is the sanctioned randomness provider);
    - an inline pragma [(* lint: allow <rule> — reason *)] suppresses
      the named rule on the comment's lines and the line after it. The
      reason is mandatory; a malformed, unknown-rule or unused pragma
      is itself reported (meta-rule ["pragma"]).

    A file the parser rejects yields one ["parse"] finding, at the
    error's line, and nothing else. *)

type severity = Error | Warning

val severity_name : severity -> string
(** ["error"] / ["warning"]. *)

type finding = {
  file : string;
  line : int;
  rule : string;
  severity : severity;
  message : string;
  why : string list;
      (** for interprocedural findings, the call chain (entry point
          first) that makes the finding reachable; [] for file-local
          rules *)
}

val finding :
  ?why:string list -> file:string -> line:int -> string -> severity -> string -> finding
(** [finding ~file ~line rule severity message]. *)

val fires_on_value : string -> string list -> bool
(** [fires_on_value rule path]: does the file-local [rule] fire on the
    value path [path] ([["Sys"; "time"]]) in an expression? The
    whole-program rules judge external references with it, so
    "ambient draw" and "clock read" mean one thing in both passes. *)

val rules_doc : unit -> string
(** The rule catalogue (name, severity, one-line summary, the
    whole-program rules and the meta-rules) plus the allowlist, for
    [--rules] and for keeping LINTING.md honest. *)

val program_rule_name : string -> bool
val known_rule : string -> bool

val allocates_at_init : Parsetree.value_binding -> bool
(** Does the binding's right-hand side apply a bare [ref] or a mutable
    container's constructor ([Hashtbl.create], [Array.make],
    [Bytes.create], [Buffer.create], ...) outside any [fun], [function]
    or [lazy]? Evaluated at module init, that is the state
    [no-naked-mutable-global] and [par-unsafe-state] look for. *)

val allowlist : (string * string list) list
(** [(path fragment, exempted rules)]: a finding is dropped when its
    file's normalized path contains the fragment. *)

val normalize_path : string -> string
(** Backslashes to slashes (so rules and the allowlist match on every
    platform). *)

val compare_findings : finding -> finding -> int
(** By line, then rule name. *)

val check_source : file:string -> string -> finding list
(** Parse [source] and run every rule that applies to [file], then
    apply the allowlist and inline pragmas. Pragma hygiene problems
    are appended as ["pragma"] findings. Result is sorted by line,
    then rule name. *)

(** {1 Scan/apply split for whole-program analysis}

    [lint --program] must run the file-local rules {i and} the
    interprocedural rules under a single pragma accounting (a pragma
    naming [par-unsafe-state] would otherwise read as unused to the
    file-local pass). {!scan_source} does the per-file work once;
    {!apply_pragmas} merges extra findings in before suppression and
    staleness are decided. {!check_source} is the composition with no
    extras and [program = false]. *)

type pragma
(** One parsed [(* lint: allow ... *)] suppression, with use tracking. *)

type scanned = {
  s_file : string;
  s_tree : Source.tree option;  (** [None] when the file does not parse *)
  s_raw : finding list;
      (** file-local rule findings (allowlist applied) and pragma
          problems; the one ["parse"] finding when the file does not
          parse *)
  s_pragmas : pragma list;
}

val scan_source : file:string -> string -> scanned

val apply_pragmas : ?program:bool -> scanned -> extra:finding list -> finding list
(** Allowlist-filter [extra], merge with the file-local findings,
    drop everything a pragma covers, then report stale pragmas (with
    the nearest enclosing top-level binding named in the message).
    With [program = false] (the default), pragmas naming only
    whole-program rules are exempt from staleness — those rules only
    fire under [lint --program]. *)

val pragma_covers : pragma -> rule:string -> line:int -> bool
(* lint: allow dead-export — test/test_lint.ml marks a pragma used *)
val pragma_mark_used : pragma -> unit
(* lint: allow dead-export — test/test_lint.ml reads the parsed line *)
val pragma_line : pragma -> int
(* lint: allow dead-export — test/test_lint.ml reads the parsed rules *)
val pragma_rules : pragma -> string list

val enclosing_binding : Source.tree -> int -> (string * string) option
(** [(keyword, name)] of the last top-level [let]/[val]/[external] at
    or above the given line. *)
