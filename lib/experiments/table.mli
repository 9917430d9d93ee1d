(** Plain-text table rendering in the style of the paper's appendix.

    Each appendix table row shows, for one parameter setting: the
    expected bisection width, then for SA and KL the cut returned by
    the standard and compacted versions, the relative cut improvement,
    the times, and the relative speed-up. This module renders aligned
    ASCII with a title and optional footnotes; it knows nothing about
    the experiments themselves. *)

type cell = string

val render :
  title:string ->
  ?notes:string list ->
  header:string list ->
  string list list ->
  string
(** [render ~title ~header rows] pads columns to their widest cell,
    right-aligning numeric-looking cells. Rows shorter than the header
    are padded with empty cells. *)

(** {1 Cell formatting helpers} *)

val int_cell : int -> cell
val float_cell : ?decimals:int -> float -> cell
val seconds_cell : float -> cell
(** Fixed 3-decimal seconds. *)

val pct_cell : float -> cell
(** One decimal and a ["%"]. *)

val improvement_pct : base:float -> improved:float -> float
(** [(base - improved) / base * 100]; [0] when [base = 0]. The paper's
    "relative improvement" for both cut sizes and times ("Rel. speed
    up"). Negative values mean the "improved" quantity was worse. *)

val mean : float list -> float
(** Arithmetic mean; 0 for the empty list. *)
