(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* Every integer Gio writes (ids, counts, weights) is non-negative, so
   its digits go straight into the buffer: what "%d" prints, without a
   format call per number. [add_after buf c i] writes [c], then [i]. *)
let rec add_int buf i =
  if i >= 10 then add_int buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_after buf c i =
  Buffer.add_char buf c;
  add_int buf i

(* The one edge-list renderer: "n m", then "u v" or "u v w" per edge.
   [flush] runs whenever the buffer passes 64 KiB, and once at the end. *)
let render_edge_list g buf flush =
  add_int buf (Csr.n_vertices g);
  add_after buf ' ' (Csr.n_edges g);
  Csr.iter_edges g (fun u v w ->
      add_after buf '\n' u;
      add_after buf ' ' v;
      if w <> 1 then add_after buf ' ' w;
      if Buffer.length buf >= 65536 then flush buf);
  Buffer.add_char buf '\n';
  flush buf

let to_edge_list_string g =
  (* Sized for unit weights: two ids and two separators per edge. *)
  let id_digits = String.length (string_of_int (Csr.n_vertices g)) in
  let buf = Buffer.create (32 + ((2 + (2 * id_digits)) * Csr.n_edges g)) in
  render_edge_list g buf ignore;
  Buffer.contents buf

let write_edge_list path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (* Stream to the channel in 64 KiB pieces: no whole-graph string. *)
      render_edge_list g (Buffer.create 65536) (fun buf ->
          Buffer.output_buffer oc buf;
          Buffer.clear buf))

let to_metis_string g =
  let n = Csr.n_vertices g in
  for v = 0 to n - 1 do
    if Csr.vertex_weight g v <> 1 then
      invalid_arg "Gio.to_metis_string: non-unit vertex weights unsupported"
  done;
  let weighted =
    let w = ref false in
    Csr.iter_edges g (fun _ _ ew -> if ew <> 1 then w := true);
    !w
  in
  let buf = Buffer.create 1024 in
  add_int buf n;
  add_after buf ' ' (Csr.n_edges g);
  Buffer.add_string buf (if weighted then " 1\n" else "\n");
  for v = 0 to n - 1 do
    let first = ref true in
    Csr.iter_neighbors g v (fun u w ->
        if !first then add_int buf (u + 1) else add_after buf ' ' (u + 1);
        first := false;
        if weighted then add_after buf ' ' w);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

(* Both parsers see each line as a slice [s.[start] .. s.[stop - 1]],
   one trailing '\r' excluded (files written on Windows end lines with
   "\r\n"; a bare '\r' elsewhere is still an error, as it should be).
   A string is walked by '\n' position, a file read a line at a time,
   so a multi-GB file never materialises as one string. *)
let without_cr s start stop = if stop > start && s.[stop - 1] = '\r' then stop - 1 else stop

let iter_string_lines s f =
  let n = String.length s in
  let start = ref 0 in
  while !start <= n do
    let stop = match String.index_from s !start '\n' with i -> i | exception Not_found -> n in
    f s !start (without_cr s !start stop);
    start := stop + 1
  done

let iter_file_lines path f =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          f line 0 (without_cr line 0 (String.length line))
        done
      with End_of_file -> ())

(* The one tokenizer: stores the bounds of each maximal run of bytes
   other than ' ' and '\t' in a slice as (start, stop) pairs in [toks],
   which grows as needed, and returns how many runs there are. *)
let tokenize toks s start stop =
  let count = ref 0 and i = ref start in
  while !i < stop do
    let a = !i in
    while !i < stop && s.[!i] <> ' ' && s.[!i] <> '\t' do
      incr i
    done;
    if !i > a then begin
      if (2 * !count) + 2 > Array.length !toks then toks := Array.append !toks !toks;
      !toks.(2 * !count) <- a;
      !toks.((2 * !count) + 1) <- !i;
      incr count
    end;
    incr i
  done;
  !count

(* Where an edge-list comment starts: the first '#', else [stop]. *)
let rec hash_stop s i stop = if i < stop && s.[i] <> '#' then hash_stop s (i + 1) stop else i

let fail what lineno msg = failwith (Printf.sprintf "%s, line %d: %s" what lineno msg)

(* Token [k] as an int. Up to 18 digits cannot overflow and are read in
   place; anything else (signs, "0x", '_', overflow) goes through
   [int_of_string_opt], whose verdict is the format's definition. *)
let int_token what lineno toks s k =
  let a = toks.(2 * k) and b = toks.((2 * k) + 1) in
  let v = ref (if b - a <= 18 then 0 else -1) in
  for i = a to b - 1 do
    if !v >= 0 then
      v := match s.[i] with '0' .. '9' as c -> (10 * !v) + Char.code c - 48 | _ -> -1
  done;
  if !v >= 0 then !v
  else
    let tok = String.sub s a (b - a) in
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail what lineno (Printf.sprintf "not an integer: %S" tok)

(* ------------------------------------------------------------------ *)
(* Edge-list format                                                    *)

let parse_edge_list iter_lines =
  let what = "edge list" in
  let lineno = ref 0 in
  (* The builder and the declared edge count, once the header is read. *)
  let state = ref None in
  let parsed_edges = ref 0 in
  let toks = ref (Array.make 8 0) in
  (* Line-number Invalid_argument raised by the builder (bad endpoint,
     bad weight) so the CLI's one-line diagnostic points at the input. *)
  let add b ?weight u v =
    try Builder.add_edge ?weight b u v with Invalid_argument msg -> fail what !lineno msg
  in
  iter_lines (fun s start stop ->
      incr lineno;
      let count = tokenize toks s start (hash_stop s start stop) in
      if count > 0 then
        match !state with
        | None ->
            if count <> 2 then fail what !lineno "expected header \"n m\"";
            let n = int_token what !lineno !toks s 0 in
            let m = int_token what !lineno !toks s 1 in
            if n < 0 then fail what !lineno "negative vertex count";
            if m < 0 then fail what !lineno "negative edge count";
            (* Validate the declared sizes before allocating anything
               proportional to them: a hostile header must die with one
               diagnostic, not an OOM. *)
            Csr.validate_scale ~n ~m;
            state := Some (Builder.create ~expected_edges:(max 16 m) n, m)
        | Some (b, _) ->
            if count < 2 || count > 3 then fail what !lineno "expected \"u v [w]\"";
            (* v, then u, then w: the order these diagnostics have always
               come in. *)
            let v = int_token what !lineno !toks s 1 in
            let u = int_token what !lineno !toks s 0 in
            if count = 2 then add b u v
            else add b ~weight:(int_token what !lineno !toks s 2) u v;
            incr parsed_edges);
  match !state with
  | Some (b, m) ->
      if !parsed_edges <> m then
        failwith
          (Printf.sprintf "edge list: header declares %d edges, found %d" m !parsed_edges);
      Builder.build b
  | None -> failwith "edge list: missing header"

let of_edge_list_string s = parse_edge_list (iter_string_lines s)
let read_edge_list path = parse_edge_list (iter_file_lines path)

(* ------------------------------------------------------------------ *)
(* METIS format                                                        *)

(* The first byte of a slice that [String.trim] would keep, else [stop]:
   blank and comment lines are judged by [String.trim]'s wider notion of
   space, while tokens split on ' ' and '\t' only. *)
let rec trim_start s i stop =
  if i < stop && match s.[i] with ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
  then trim_start s (i + 1) stop
  else i

(* Single forward pass: comments are dropped wherever they appear,
   blanks before the header are skipped, then the header line, then
   exactly n adjacency lines (an isolated vertex has an empty line),
   then only blank lines may follow. METIS comments start with '%';
   '#' is accepted too since several tools emit it. *)
let parse_metis iter_lines =
  let what = "metis" in
  let lineno = ref 0 in
  (* n, m, edge_weighted, builder, adjacency lines consumed so far *)
  let state = ref None in
  let toks = ref (Array.make 8 0) in
  let vals = ref (Array.make 8 0) in
  iter_lines (fun s start stop ->
      incr lineno;
      let first = trim_start s start stop in
      let blank = first = stop in
      if blank || (s.[first] <> '%' && s.[first] <> '#') then
        match !state with
        | None ->
            if not blank then begin
              let count = tokenize toks s start stop in
              if count < 2 || count > 3 then fail what !lineno "expected \"n m [fmt]\"";
              (* m, then n: the order these diagnostics have always come in. *)
              let m = int_token what !lineno !toks s 1 in
              let n = int_token what !lineno !toks s 0 in
              let edge_weighted =
                count = 3
                &&
                match String.sub s !toks.(4) (!toks.(5) - !toks.(4)) with
                | "0" | "00" | "000" -> false
                | "1" | "01" | "001" -> true
                | fmt -> fail what !lineno (Printf.sprintf "unsupported fmt %S" fmt)
              in
              if n < 0 then fail what !lineno "negative vertex count";
              if m < 0 then fail what !lineno "negative edge count";
              Csr.validate_scale ~n ~m;
              state :=
                Some (n, m, edge_weighted, Builder.create ~expected_edges:(max 16 m) n, ref 0)
            end
        | Some (n, _, edge_weighted, b, consumed) ->
            if !consumed >= n then begin
              if not blank then fail what !lineno "content after the adjacency lines"
            end
            else begin
              let u = !consumed in
              incr consumed;
              let lineno = !lineno in
              let count = tokenize toks s start stop in
              if count > Array.length !vals then vals := Array.make (2 * count) 0;
              (* Every token parses before any range check. *)
              for k = 0 to count - 1 do
                !vals.(k) <- int_token what lineno !toks s k
              done;
              let k = ref 0 in
              while !k < count do
                let v = !vals.(!k) in
                let w =
                  if not edge_weighted then 1
                  else if !k + 1 < count then !vals.(!k + 1)
                  else fail what lineno "dangling neighbour without weight"
                in
                if v < 1 || v > n then fail what lineno "neighbour out of range";
                (if v - 1 > u then
                   try Builder.add_edge ~weight:w b u (v - 1)
                   with Invalid_argument msg -> fail what lineno msg);
                k := !k + if edge_weighted then 2 else 1
              done
            end);
  match !state with
  | None -> failwith "metis: empty file"
  | Some (n, m, _, b, consumed) ->
      if !consumed <> n then
        failwith
          (Printf.sprintf "metis: header declares %d vertices, found %d adjacency lines" n
             !consumed);
      let g = Builder.build b in
      if Csr.n_edges g <> m then
        failwith
          (Printf.sprintf "metis: header declares %d edges, graph has %d" m (Csr.n_edges g));
      g

let of_metis_string s = parse_metis (iter_string_lines s)
let read_metis path = parse_metis (iter_file_lines path)

(* ------------------------------------------------------------------ *)
(* DOT                                                                 *)

let to_dot ?highlight_cut g =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "graph G {\n  node [shape=circle];\n";
  Option.iter
    (fun side ->
      for v = 0 to Csr.n_vertices g - 1 do
        add "  ";
        add_int buf v;
        add
          (if side.(v) = 0 then " [style=filled, fillcolor=lightblue];\n"
           else " [style=filled, fillcolor=lightsalmon];\n")
      done)
    highlight_cut;
  Csr.iter_edges g (fun u v w ->
      let cut = match highlight_cut with Some side -> side.(u) <> side.(v) | None -> false in
      add "  ";
      add_int buf u;
      add " -- ";
      add_int buf v;
      if cut then add (if w = 1 then " [style=bold, color=red]" else " [style=bold, color=red, label")
      else if w <> 1 then add " [label";
      if w <> 1 then begin
        add_after buf '=' w;
        Buffer.add_char buf ']'
      end;
      add ";\n");
  add "}\n";
  Buffer.contents buf
