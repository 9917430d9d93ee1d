(** Connected components, for the tree-width DP ({!Gb_partition.Tree_exact})
    and the fuzz oracles. *)

val components : Csr.t -> int array * int
(** [components g] is [(label, count)]: [label.(v)] is the component
    index of [v], components are numbered [0 .. count-1] by smallest
    member. *)
