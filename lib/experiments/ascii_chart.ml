let max_columns = 72

(* Downsample to at most [max_columns] buckets, keeping each bucket's
   maximum so short-lived spikes survive. *)
let downsample series =
  let arr = Array.of_list series in
  let n = Array.length arr in
  if n <= max_columns then arr
  else begin
    let out = Array.make max_columns neg_infinity in
    for i = 0 to n - 1 do
      let b = i * max_columns / n in
      if arr.(i) > out.(b) then out.(b) <- arr.(i)
    done;
    out
  end

let render ~title ?(height = 12) ?(y_label = "") ?(x_label = "") series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  (match series with
  | [] -> Buffer.add_string buf "  (empty series)\n"
  | _ ->
      let data = downsample series in
      let lo = Array.fold_left min infinity data in
      let hi = Array.fold_left max neg_infinity data in
      let span = if hi -. lo < 1e-12 then 1. else hi -. lo in
      let rows = max 2 height in
      let cell v =
        (* row index from the top; row 0 = hi *)
        rows - 1 - int_of_float (Float.round ((v -. lo) /. span *. float_of_int (rows - 1)))
      in
      let width = Array.length data in
      let grid = Array.make_matrix rows width ' ' in
      Array.iteri
        (fun x v ->
          let y = cell v in
          grid.(y).(x) <- '*';
          (* light vertical fill below the point for readability *)
          for yy = y + 1 to rows - 1 do
            if grid.(yy).(x) = ' ' then grid.(yy).(x) <- '.'
          done)
        data;
      let label_for_row r =
        (* lint: allow no-float-format — axis labels on a display-only ASCII chart *)
        if r = 0 then Printf.sprintf "%10.1f" hi
        (* lint: allow no-float-format — axis labels on a display-only ASCII chart *)
        else if r = rows - 1 then Printf.sprintf "%10.1f" lo
        else String.make 10 ' '
      in
      for r = 0 to rows - 1 do
        Buffer.add_string buf (label_for_row r);
        Buffer.add_string buf " |";
        Buffer.add_string buf (String.init width (fun c -> grid.(r).(c)));
        Buffer.add_char buf '\n'
      done;
      Buffer.add_string buf (String.make 10 ' ');
      Buffer.add_string buf " +";
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      if y_label <> "" || x_label <> "" then
        Buffer.add_string buf
          (Printf.sprintf "%s  y: %s, x: %s (%d points)\n" (String.make 10 ' ') y_label
             x_label (List.length series)));
  Buffer.contents buf
