type cell = string

let looks_numeric s =
  s <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '%' || c = '+')
       s

let rstrip s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do
    decr n
  done;
  String.sub s 0 !n

let render ~title ?(notes = []) ~header rows =
  let ncols = List.length header in
  let pad_row r =
    let len = List.length r in
    if len < ncols then r @ List.init (ncols - len) (fun _ -> "") else r
  in
  let rows = List.map pad_row rows in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c))
    (header :: rows);
  let pad i c =
    let w = widths.(i) and l = String.length c in
    if l >= w then c
    else if looks_numeric c then String.make (w - l) ' ' ^ c
    else c ^ String.make (w - l) ' '
  in
  let line r = rstrip ("  " ^ String.concat "  " (List.mapi pad r)) ^ "\n" in
  let sep =
    "  " ^ String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths))
    ^ "\n"
  in
  let notes_str = String.concat "" (List.map (fun n -> "  note: " ^ n ^ "\n") notes) in
  title ^ "\n" ^ line header ^ sep ^ String.concat "" (List.map line rows) ^ notes_str

let int_cell = string_of_int

(* lint: allow no-float-format — the canonical display-only table cells: fixed precision is the point *)
let float_cell ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
(* lint: allow no-float-format — the canonical display-only table cells: fixed precision is the point *)
let seconds_cell x = Printf.sprintf "%.3f" x
(* lint: allow no-float-format — the canonical display-only table cells: fixed precision is the point *)
let pct_cell x = Printf.sprintf "%.1f%%" x

let improvement_pct ~base ~improved =
  if base = 0. then 0. else (base -. improved) /. base *. 100.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
