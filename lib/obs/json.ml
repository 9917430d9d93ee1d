type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

(* Bytes that need no escape are copied a run at a time. *)
let escape_to buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c < ' ' || c = '"' || c = '\\' then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* What "%d" prints, without the format call; digits come from the
   non-positive value, so [min_int] needs no special case. *)
let rec add_nonpositive buf i =
  if i <= -10 then add_nonpositive buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (i mod 10)))

let add_int buf i =
  if i < 0 then Buffer.add_char buf '-';
  add_nonpositive buf (if i < 0 then i else -i)

(* The primitive under Printf's %f and %g conversions, minus the format
   interpreter: it prints a finite float exactly as Printf does. *)
external format_float : string -> float -> string = "caml_format_float"

let float_to ~strict buf f =
  if not (Float.is_finite f) then
    if strict then invalid_arg "Json.to_string: non-finite float"
    else Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 9.007199254740992e15 (* 2^53 *) then
    Buffer.add_string buf (format_float "%.0f" f)
  else
    (* Shortest rendering that parses back to the same double: the
       common cases stay readable ("7.05") and the codec is lossless,
       which the result store needs to replay stored floats bit for
       bit. *)
    let rec shortest = function
      | [] -> format_float "%.17g" f
      | fmt :: rest ->
          let s = format_float fmt f in
          if float_of_string s = f then s else shortest rest
    in
    Buffer.add_string buf (shortest [ "%.12g"; "%.15g"; "%.16g" ])

let rec write ~strict buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
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

let at c ch = c.pos < String.length c.text && String.unsafe_get c.text c.pos = ch

let skip_ws c =
  while
    c.pos < String.length c.text
    && match c.text.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch = if at c ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.text && String.sub c.text c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

(* Encode a code point as UTF-8. *)
let add_utf8 buf code =
  let tail = if code < 0x80 then 0 else if code < 0x800 then 1 else if code < 0x10000 then 2 else 3 in
  let lead = match tail with 0 -> 0 | 1 -> 0xc0 | 2 -> 0xe0 | _ -> 0xf0 in
  Buffer.add_char buf (Char.chr (lead lor (code lsr (6 * tail))));
  for k = tail - 1 downto 0 do
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr (6 * k)) land 0x3f)))
  done

(* The value of exactly four hex digits at [i], or -1; and of a whole
   "\\uXXXX" escape at [i], or -1. *)
let hex4 text i =
  let hex = if i + 4 <= String.length text then String.sub text i 4 else "" in
  let digit = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  if String.length hex = 4 && String.for_all digit hex then int_of_string ("0x" ^ hex) else -1

let u_escape text i =
  if i + 1 < String.length text && text.[i] = '\\' && text.[i + 1] = 'u' then hex4 text (i + 2)
  else -1

(* The first quote or backslash at or after [i], or the end of the text. *)
let rec plain_end text i =
  if i < String.length text && match String.unsafe_get text i with '"' | '\\' -> false | _ -> true
  then plain_end text (i + 1)
  else i

(* Runs of plain bytes are copied at once; a string with no escape is a
   single [String.sub]. *)
let parse_string c =
  expect c '"';
  let text = c.text and start = c.pos in
  let stop = plain_end text start in
  if stop < String.length text && text.[stop] = '"' then begin
    c.pos <- stop + 1;
    String.sub text start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    let rec loop i =
      let stop = plain_end text i in
      Buffer.add_substring buf text i (stop - i);
      c.pos <- stop;
      if stop = String.length text then fail c "unterminated string";
      c.pos <- stop + 1;
      if text.[stop] = '\\' then begin
        if c.pos = String.length text then fail c "unterminated escape";
        let ch = text.[c.pos] in
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
            if c.pos + 4 > String.length text then fail c "bad \\u escape";
            let code = hex4 text c.pos in
            c.pos <- c.pos + 4;
            if code < 0 then fail c "bad \\u escape";
            (* A high surrogate escaped right before a low one: together
               they are one code point beyond the BMP. *)
            let low = if code land 0xfc00 = 0xd800 then u_escape text c.pos else -1 in
            if low land 0xfc00 = 0xdc00 then begin
              c.pos <- c.pos + 6;
              add_utf8 buf (0x10000 + ((code - 0xd800) lsl 10) + (low - 0xdc00))
            end
            else add_utf8 buf code
        | _ -> fail c "unknown escape");
        loop c.pos
      end
    in
    loop start;
    Buffer.contents buf
  end

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

(* The parser recurses once per level of nesting, so one frame of
   brackets would otherwise cost stack and heap in proportion to its
   length. [depth] counts the arrays and objects around the value. *)
let max_depth = 512

let rec parse_value c depth =
  skip_ws c;
  if c.pos >= String.length c.text then fail c "unexpected end of input";
  match c.text.[c.pos] with
  | '"' -> String (parse_string c)
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | ('[' | '{') when depth = max_depth ->
      fail c (Printf.sprintf "nesting deeper than %d" max_depth)
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let items = ref [ parse_value c (depth + 1) ] in
        skip_ws c;
        while at c ',' do
          c.pos <- c.pos + 1;
          items := parse_value c (depth + 1) :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if at c '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          (key, parse_value c (depth + 1))
        in
        let fields = ref [ field () ] in
        skip_ws c;
        while at c ',' do
          c.pos <- c.pos + 1;
          fields := field () :: !fields;
          skip_ws c
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | _ -> parse_number c

let of_string text =
  let c = { text; pos = 0 } in
  let v = parse_value c 0 in
  skip_ws c;
  if c.pos <> String.length text then fail c "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
