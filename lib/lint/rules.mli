(** The determinism & domain-safety rule set.

    Every rule here guards an invariant that the reproduction's
    headline guarantees rest on — bit-identical results at any
    [--jobs] and byte-identical resumed runs — or the domain-safety
    discipline that makes the parallel layer sound. The catalogue,
    with the rationale for each rule, lives in LINTING.md.

    Rules operate on {!Tokenizer.t} streams, so they never fire inside
    comments or string/char literals. Findings can be silenced two
    ways:

    - the built-in {!allowlist} exempts the module that {i owns} an
      effect (e.g. [lib/prng] is the sanctioned randomness provider);
    - an inline pragma [(* lint: allow <rule> — reason *)] suppresses
      the named rule on the comment's lines and the line after it. The
      reason is mandatory; a malformed, unknown-rule or unused pragma
      is itself reported (meta-rule ["pragma"]). *)

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

type rule = {
  name : string;
  r_severity : severity;
  summary : string;  (** one line, shown by [lint --rules] *)
  applies : string -> bool;  (** on a '/'-normalized path *)
  check : file:string -> Tokenizer.t -> finding list;
}

val all : rule list

type program_rule = { p_name : string; p_severity : severity; p_summary : string }

val program_rules : program_rule list
(** The whole-program rules checked by [lint --program] over the
    {!Program} call graph (the checks themselves live in
    {!Graph_rules}); declared here so pragmas, [--rules] and
    {!known_rule} share one namespace with the file-local rules. *)

val program_rule_name : string -> bool
val known_rule : string -> bool

val allocates_mutable : string -> string -> bool
(** [allocates_mutable m f] holds when [m.f] makes a mutable container
    ([Hashtbl.create], [Array.make], [Bytes.create], [Buffer.create],
    ...). Evaluated at module init, as a bare [ref] is, it is the
    state [no-naked-mutable-global] and [par-unsafe-state] look for. *)

val allowlist : (string * string list) list
(** [(path fragment, exempted rules)]: a finding is dropped when its
    file's normalized path contains the fragment. *)

val normalize_path : string -> string
(** Backslashes to slashes (so rules and the allowlist match on every
    platform). *)

val check_source : file:string -> string -> finding list
(** Tokenize [source] and run every rule that applies to [file], then
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
  s_lexed : Tokenizer.t;
  s_raw : finding list;  (** file-local rule findings, allowlist applied *)
  s_pragmas : pragma list;
  s_pragma_problems : finding list;
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

val enclosing_binding : Tokenizer.t -> int -> (string * string) option
(** [(keyword, name)] of the nearest top-level [let]/[val]/[external]
    at column 0 on or above the given line. *)
