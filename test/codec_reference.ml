(* Test-only reference for the text codecs: Gio's edge-list, METIS and
   DOT readers and writers, Json's printer and parser, and the serving
   protocol's framer, as they stood before the linear byte scans,
   copied verbatim. The codec reference suite in test_serve.ml demands
   that the live codecs return exactly what these return: the same
   graph or the same exception and message, the same bytes, the same
   frames. The METIS writer has no live counterpart; the tests render
   METIS input with it. *)

module Gio = struct
  module Csr = Gbisect.Graph
  module Builder = Gbisect.Builder

  let to_edge_list_string g =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "%d %d\n" (Csr.n_vertices g) (Csr.n_edges g));
    Csr.iter_edges g (fun u v w ->
        if w = 1 then Buffer.add_string buf (Printf.sprintf "%d %d\n" u v)
        else Buffer.add_string buf (Printf.sprintf "%d %d %d\n" u v w));
    Buffer.contents buf

  let split_ws line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")

  (* Files written on Windows arrive with "\r\n" endings; splitting on
     '\n' alone leaves a '\r' glued to the last token of every line, which
     then fails int_of_string. Strip exactly one trailing '\r' per line —
     a bare '\r' elsewhere is still an error, as it should be. *)
  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  (* Both parsers run over an abstract line iterator so the in-memory
     string entry points and the streaming file readers share one
     grammar: the string version walks '\n' positions, the file version
     reads [input_line] at a time — a multi-GB file never materialises
     as one string (the old reader slurped the whole file with
     [really_input_string]). *)
  let iter_string_lines s f =
    let n = String.length s in
    let start = ref 0 in
    while !start <= n do
      let stop =
        match String.index_from_opt s !start '\n' with Some i -> i | None -> n
      in
      f (strip_cr (String.sub s !start (stop - !start)));
      start := stop + 1
    done

  let iter_file_lines path f =
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            f (strip_cr (input_line ic))
          done
        with End_of_file -> ())

  (* ------------------------------------------------------------------ *)
  (* Edge-list format                                                    *)

  let parse_edge_list iter_lines =
    let fail lineno msg = failwith (Printf.sprintf "edge list, line %d: %s" lineno msg) in
    let parse_int lineno tok =
      match int_of_string_opt tok with
      | Some v -> v
      | None -> fail lineno (Printf.sprintf "not an integer: %S" tok)
    in
    let lineno = ref 0 in
    let header = ref None in
    let builder = ref None in
    let parsed_edges = ref 0 in
    (* Line-number Invalid_argument raised by the builder (bad endpoint,
       bad weight) so the CLI's one-line diagnostic points at the input. *)
    let add b ?weight u v =
      try Builder.add_edge ?weight b u v with Invalid_argument msg -> fail !lineno msg
    in
    iter_lines (fun line ->
        incr lineno;
        let line =
          match String.index_opt line '#' with
          | Some k -> String.sub line 0 k
          | None -> line
        in
        match split_ws line with
        | [] -> ()
        | toks -> (
            match !builder with
            | None -> (
                match toks with
                | [ a; b ] ->
                    let n = parse_int !lineno a and m = parse_int !lineno b in
                    if n < 0 then fail !lineno "negative vertex count";
                    if m < 0 then fail !lineno "negative edge count";
                    (* Validate the declared sizes before allocating
                       anything proportional to them: a hostile header
                       must die with one diagnostic, not an OOM. *)
                    Csr.validate_scale ~n ~m;
                    header := Some (n, m);
                    builder := Some (Builder.create ~expected_edges:(max 16 m) n)
                | _ -> fail !lineno "expected header \"n m\"")
            | Some b -> (
                match toks with
                | [ x; y ] ->
                    add b (parse_int !lineno x) (parse_int !lineno y);
                    incr parsed_edges
                | [ x; y; w ] ->
                    add b
                      ~weight:(parse_int !lineno w)
                      (parse_int !lineno x) (parse_int !lineno y);
                    incr parsed_edges
                | _ -> fail !lineno "expected \"u v [w]\"")));
    match (!header, !builder) with
    | Some (_, m), Some b ->
        if !parsed_edges <> m then
          failwith
            (Printf.sprintf "edge list: header declares %d edges, found %d" m !parsed_edges);
        Builder.build b
    | _ -> failwith "edge list: missing header"

  let of_edge_list_string s = parse_edge_list (iter_string_lines s)
  let read_edge_list path = parse_edge_list (iter_file_lines path)

  (* ------------------------------------------------------------------ *)
  (* METIS format                                                        *)

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
    Buffer.add_string buf
      (if weighted then Printf.sprintf "%d %d 1\n" n (Csr.n_edges g)
       else Printf.sprintf "%d %d\n" n (Csr.n_edges g));
    for v = 0 to n - 1 do
      let first = ref true in
      Csr.iter_neighbors g v (fun u w ->
          if not !first then Buffer.add_char buf ' ';
          first := false;
          if weighted then Buffer.add_string buf (Printf.sprintf "%d %d" (u + 1) w)
          else Buffer.add_string buf (string_of_int (u + 1)));
      Buffer.add_char buf '\n'
    done;
    Buffer.contents buf

  (* Single forward pass: comments are dropped wherever they appear,
     blanks before the header are skipped, then the header line, then
     exactly n adjacency lines (an isolated vertex has an empty line),
     then only blank lines may follow. METIS comments start with '%';
     '#' is accepted too since several tools emit it. *)
  let parse_metis iter_lines =
    let fail lineno msg = failwith (Printf.sprintf "metis, line %d: %s" lineno msg) in
    let parse_int lineno tok =
      match int_of_string_opt tok with
      | Some v -> v
      | None -> fail lineno (Printf.sprintf "not an integer: %S" tok)
    in
    let lineno = ref 0 in
    (* n, m, edge_weighted, builder, adjacency lines consumed so far *)
    let state = ref None in
    let seen_any = ref false in
    iter_lines (fun line ->
        incr lineno;
        let trimmed = String.trim line in
        let comment = trimmed <> "" && (trimmed.[0] = '%' || trimmed.[0] = '#') in
        if not comment then
          match !state with
          | None ->
              if trimmed <> "" then begin
                seen_any := true;
                let toks = split_ws line in
                let n, m, fmt =
                  match toks with
                  | [ n; m ] -> (parse_int !lineno n, parse_int !lineno m, "0")
                  | [ n; m; fmt ] -> (parse_int !lineno n, parse_int !lineno m, fmt)
                  | _ -> fail !lineno "expected \"n m [fmt]\""
                in
                let edge_weighted =
                  match fmt with
                  | "0" | "00" | "000" -> false
                  | "1" | "01" | "001" -> true
                  | _ -> fail !lineno (Printf.sprintf "unsupported fmt %S" fmt)
                in
                if n < 0 then fail !lineno "negative vertex count";
                if m < 0 then fail !lineno "negative edge count";
                Csr.validate_scale ~n ~m;
                state :=
                  Some (n, m, edge_weighted, Builder.create ~expected_edges:(max 16 m) n, ref 0)
              end
          | Some (n, _, edge_weighted, b, consumed) ->
              if !consumed >= n then begin
                if trimmed <> "" then fail !lineno "content after the adjacency lines"
              end
              else begin
                let u = !consumed in
                incr consumed;
                let lineno = !lineno in
                let toks = List.map (parse_int lineno) (split_ws line) in
                let add v w =
                  if v < 1 || v > n then fail lineno "neighbour out of range";
                  if v - 1 > u then
                    try Builder.add_edge ~weight:w b u (v - 1)
                    with Invalid_argument msg -> fail lineno msg
                in
                let rec consume = function
                  | [] -> ()
                  | v :: rest when not edge_weighted ->
                      add v 1;
                      consume rest
                  | v :: w :: rest ->
                      add v w;
                      consume rest
                  | [ _ ] -> fail lineno "dangling neighbour without weight"
                in
                consume toks
              end);
    match !state with
    | None ->
        if !seen_any then assert false;
        failwith "metis: empty file"
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
    Buffer.add_string buf "graph G {\n  node [shape=circle];\n";
    (match highlight_cut with
    | None -> ()
    | Some side ->
        for v = 0 to Csr.n_vertices g - 1 do
          let colour = if side.(v) = 0 then "lightblue" else "lightsalmon" in
          Buffer.add_string buf
            (Printf.sprintf "  %d [style=filled, fillcolor=%s];\n" v colour)
        done);
    Csr.iter_edges g (fun u v w ->
        let attrs = ref [] in
        if w <> 1 then attrs := Printf.sprintf "label=%d" w :: !attrs;
        (match highlight_cut with
        | Some side when side.(u) <> side.(v) -> attrs := "style=bold, color=red" :: !attrs
        | _ -> ());
        let attr_str =
          match !attrs with [] -> "" | l -> Printf.sprintf " [%s]" (String.concat ", " l)
        in
        Buffer.add_string buf (Printf.sprintf "  %d -- %d%s;\n" u v attr_str));
    Buffer.add_string buf "}\n";
    Buffer.contents buf
end

module Json = struct
  type t = Gbisect.Obs.Json.t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* ------------------------------------------------------------------ *)
  (* Printing                                                            *)

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_to ~strict buf f =
    if not (Float.is_finite f) then
      if strict then invalid_arg "Json.to_string: non-finite float"
      else Buffer.add_string buf "null"
    else if Float.is_integer f && Float.abs f < 9.007199254740992e15 (* 2^53 *) then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else
      (* Shortest rendering that parses back to the same double: the
         common cases stay readable ("7.05") and the codec is lossless,
         which the result store needs to replay stored floats bit for
         bit. *)
      let rec shortest = function
        | [] -> Printf.sprintf "%.17g" f
        | digits :: rest ->
            let s = Printf.sprintf "%.*g" digits f in
            if float_of_string s = f then s else shortest rest
      in
      Buffer.add_string buf (shortest [ 12; 15; 16 ])

  let rec write ~strict buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> float_to ~strict buf f
    | String s -> escape_to buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            write ~strict buf item)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_to buf k;
            Buffer.add_char buf ':';
            write ~strict buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string ?(strict = false) json =
    let buf = Buffer.create 256 in
    write ~strict buf json;
    Buffer.contents buf

  (* ------------------------------------------------------------------ *)
  (* Parsing: plain recursive descent over a cursor.                     *)

  type cursor = { text : string; mutable pos : int }

  let fail c msg = failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg c.pos)
  let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

  let skip_ws c =
    while
      c.pos < String.length c.text
      && match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      c.pos <- c.pos + 1
    done

  let expect c ch =
    match peek c with
    | Some got when got = ch -> c.pos <- c.pos + 1
    | _ -> fail c (Printf.sprintf "expected %C" ch)

  let literal c word value =
    let n = String.length word in
    if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
      c.pos <- c.pos + n;
      value
    end
    else fail c (Printf.sprintf "expected %s" word)

  (* Encode a BMP code point as UTF-8 (enough for \uXXXX escapes). *)
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end

  let parse_string c =
    expect c '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek c with
      | None -> fail c "unterminated string"
      | Some '"' -> c.pos <- c.pos + 1
      | Some '\\' -> (
          c.pos <- c.pos + 1;
          match peek c with
          | None -> fail c "unterminated escape"
          | Some ch ->
              c.pos <- c.pos + 1;
              (match ch with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if c.pos + 4 > String.length c.text then fail c "bad \\u escape";
                  let hex = String.sub c.text c.pos 4 in
                  c.pos <- c.pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
                  in
                  add_utf8 buf code
              | _ -> fail c "unknown escape");
              loop ())
      | Some ch ->
          c.pos <- c.pos + 1;
          Buffer.add_char buf ch;
          loop ()
    in
    loop ();
    Buffer.contents buf

  let parse_number c =
    let start = c.pos in
    let is_num_char ch =
      match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while c.pos < String.length c.text && is_num_char c.text.[c.pos] do
      c.pos <- c.pos + 1
    done;
    let s = String.sub c.text start (c.pos - start) in
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail c (Printf.sprintf "bad number %S" s))

  let rec parse_value c =
    skip_ws c;
    match peek c with
    | None -> fail c "unexpected end of input"
    | Some '"' -> String (parse_string c)
    | Some 'n' -> literal c "null" Null
    | Some 't' -> literal c "true" (Bool true)
    | Some 'f' -> literal c "false" (Bool false)
    | Some '[' ->
        c.pos <- c.pos + 1;
        skip_ws c;
        if peek c = Some ']' then begin
          c.pos <- c.pos + 1;
          List []
        end
        else begin
          let items = ref [ parse_value c ] in
          skip_ws c;
          while peek c = Some ',' do
            c.pos <- c.pos + 1;
            items := parse_value c :: !items;
            skip_ws c
          done;
          expect c ']';
          List (List.rev !items)
        end
    | Some '{' ->
        c.pos <- c.pos + 1;
        skip_ws c;
        if peek c = Some '}' then begin
          c.pos <- c.pos + 1;
          Obj []
        end
        else begin
          let field () =
            skip_ws c;
            let key = parse_string c in
            skip_ws c;
            expect c ':';
            (key, parse_value c)
          in
          let fields = ref [ field () ] in
          skip_ws c;
          while peek c = Some ',' do
            c.pos <- c.pos + 1;
            fields := field () :: !fields;
            skip_ws c
          done;
          expect c '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number c

  let of_string text =
    let c = { text; pos = 0 } in
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length text then fail c "trailing garbage";
    v
end

module Frames = struct
  type t = {
    max_frame : int;
    buf : Buffer.t;
    mutable discarding : bool;
        (* Inside an oversized line: bytes are dropped until the next
           newline; the [`Oversized] frame was already emitted. *)
  }

  let create ~max_frame =
    { max_frame = max 1 max_frame; buf = Buffer.create 256; discarding = false }

  let take_line t =
    let s = Buffer.contents t.buf in
    Buffer.clear t.buf;
    let n = String.length s in
    if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

  let blank s = String.length (String.trim s) = 0

  let feed t chunk =
    let out = ref [] in
    for i = 0 to String.length chunk - 1 do
      let c = chunk.[i] in
      if t.discarding then begin
        if c = '\n' then t.discarding <- false
      end
      else if c = '\n' then begin
        let line = take_line t in
        if not (blank line) then out := `Line line :: !out
      end
      else begin
        Buffer.add_char t.buf c;
        if Buffer.length t.buf > t.max_frame then begin
          out := `Oversized (Buffer.length t.buf) :: !out;
          Buffer.clear t.buf;
          t.discarding <- true
        end
      end
    done;
    List.rev !out

  let pending t = Buffer.length t.buf
end
