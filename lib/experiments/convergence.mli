(** Convergence figures: the dynamics behind the tables.

    Three figures, rendered as ASCII charts:

    + {b KL cut vs pass} on a sparse planted instance, from a random
      start and from a compacted start — shows why CKL converges in
      fewer passes (the paper's Observation 2 speed claim);
    + {b SA best cost vs temperature index} on the same instance —
      Figure 1's "gross features appear at high temperature, details at
      low" made visible, including the long cold tail §VII complains
      about;
    + {b multilevel cut by level}: projected-then-refined cut at each
      uncoarsening level of recursive compaction.

    All three are read straight off the labelled trajectories in the
    {!Gb_obs.Telemetry.record} returned by {!Runner.run_once_record}
    ({!Gb_obs.Span.kl_pass}, {!Gb_obs.Span.sa_plateau},
    {!Gb_obs.Span.compaction_level}) — the same data
    [gbisect table --out DIR] streams to [telemetry.jsonl]. *)

val figures : Profile.t -> string
(** The KL-pass, SA-temperature and multilevel-level charts,
    concatenated (the registry's "figures" experiment). *)
