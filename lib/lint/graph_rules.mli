(** The interprocedural rules run by [gbisect_lint --program].

    Names, severities and one-line summaries live in
    {!Rules.program_rules} so pragmas and [--rules] share one
    namespace; the checks themselves are here because they need the
    {!Program.t} call graph. Findings carry their witness chain in
    [why] (fan-out site first) and are merged into the normal per-file
    pragma accounting by the driver. *)

val check : Program.t -> Rules.finding list
(** All five rules: [par-unsafe-state], [par-ambient-rng],
    [par-wall-clock], [rng-stream-discipline], [dead-export]. Result
    order is deterministic (node order, which is sorted-module
    order). The allowlist and pragmas are {i not} applied here — the
    driver owns suppression. *)
