(** Plain-text line charts for convergence figures.

    The paper reports tables only; the harness additionally prints
    convergence figures (cut vs KL pass, best cost vs SA temperature)
    as fixed-height ASCII charts so the dynamics are visible in a
    terminal and in the committed bench output. *)

val render :
  title:string ->
  ?height:int ->
  ?y_label:string ->
  ?x_label:string ->
  float list ->
  string
(** [render ~title series] draws [series] left to right, [height] rows
    high (default 12), with min/max annotations. Empty series render a
    placeholder line. Wide series are downsampled to at most 72
    columns (max within each bucket, so spikes stay visible). *)
