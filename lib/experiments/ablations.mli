(** Ablation studies on the design choices the paper fixes implicitly
    (DESIGN.md §5). Not in the paper; they quantify the gap between the
    1989 heuristic and its multilevel descendants. *)

val gbreg_corpus :
  Profile.t -> (int * int) list -> (string * int * (Gb_prng.Rng.t -> Gb_graph.Csr.t)) list
(** [gbreg_corpus profile [(d, b); ...]] is one [Gbreg(2n, b, d)] family
    per feasible setting, at the profile's 2000-vertex scale with [b]
    rounded to the model's parity: its label, its [b] and its
    generator. The ablations and the spectral baseline share it. *)

val matching_policy : Profile.t -> string
(** E-X1: CKL with random maximal matching (the paper's choice) vs
    greedy heavy-edge matching, on the sparse corpus where compaction
    matters. On unit-weight graphs heavy-edge degenerates to a
    vertex-order greedy matching; the comparison isolates how much the
    matching's randomness (vs its mere maximality) contributes. *)

val recursion_depth : Profile.t -> string
(** E-X2: one-shot compaction (the paper) vs recursive/multilevel
    compaction, KL refiner, on degree-3 planted graphs — cut and time
    per level budget. *)
