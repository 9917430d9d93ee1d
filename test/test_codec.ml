(* The text codecs must do exactly what their verbatim copies in
   codec_reference.ml do: Gio's edge-list, METIS and DOT readers and
   writers, Json's printer and parser, and the serving protocol's
   framer must return an equal graph or raise the same exception with
   the same message, render the same bytes, and cut a stream into the
   same frames. The inputs are the fuzz corpus plus one edge-weighted
   graph, rendered as edge lists, as METIS and inside solve request
   lines, and each rendering edited 40 ways at random. *)

module P = Gbisect.Serve_protocol
module Ref = Codec_reference
module Gio = Gbisect.Graph_io
module Json = Gbisect.Obs.Json
module Rng = Gbisect.Rng

let case = Helpers.case
let outcome f x = match f x with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same_graph a b =
  match (a, b) with
  | Ok g, Ok g' -> Gbisect.Graph.equal g g'
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let codec_corpus =
  lazy
    (let r = Rng.create ~seed:17 in
     let b = Gbisect.Builder.create 80 in
     for _ = 1 to 240 do
       let u = Rng.int r 80 and v = Rng.int r 80 in
       if u <> v then Gbisect.Builder.add_edge ~weight:(1 + Rng.int r 9) b u v
     done;
     Gbisect.Builder.build b
     :: List.filter_map
          (fun seed ->
            match Gbisect.Fuzz_generators.generate ~seed with
            | c -> Some c.graph
            | exception _ -> None)
          (List.init 300 Fun.id))

(* One to three edits, each inserting, deleting or replacing a byte the
   grammars care about, or inserting a run of 19 to 22 digits: longer
   than an int token that is read in place. *)
let edit_bytes = "0123456789 \t\r\n#%-+_x\"'\\{}"

let mutate r s =
  let s = ref s in
  for _ = 0 to Rng.int r 3 do
    let n = String.length !s in
    let i = Rng.int r (n + 1) in
    let before = String.sub !s 0 i in
    let from k = if i + k <= n then String.sub !s (i + k) (n - i - k) else "" in
    let byte = String.make 1 edit_bytes.[Rng.int r (String.length edit_bytes)] in
    s :=
      match Rng.int r 8 with
      | 0 | 1 | 2 -> before ^ byte ^ from 0
      | 3 | 4 -> before ^ from 1
      | 5 | 6 -> before ^ byte ^ from 1
      | _ -> before ^ String.init (19 + Rng.int r 4) (fun _ -> Char.chr (48 + Rng.int r 10)) ^ from 0
  done;
  !s

(* An edited header can declare a graph both parsers would then allocate
   in full, up to 2^31 vertices; inputs with a number between 100k and
   that bound are left out. Tokens never span these bytes, so every
   number a parser reads is one of these pieces. *)
let declares_big text =
  List.exists
    (fun piece ->
      match int_of_string_opt piece with
      | Some v -> v > 100_000 && v <= Gbisect.Graph.max_vertices
      | None -> false)
    (String.split_on_char ' '
       (String.map (function '\t' | '\n' | '\r' | '#' | '%' -> ' ' | c -> c) text))

let with_edits r text = text :: List.init 40 (fun _ -> mutate r text)

let expect_same what show inputs same =
  match List.find_opt (fun x -> not (same x)) inputs with
  | None -> ()
  | Some x -> Alcotest.failf "%s differs from the reference on %s" what (show x)

let renderings g =
  Gio.to_edge_list_string g
  :: (match Ref.Gio.to_metis_string g with s -> [ s ] | exception Invalid_argument _ -> [])

let solve_line ?(format = P.Edge_list) data =
  P.request_to_line
    (P.Solve { id = Some "c-1"; format; data; algorithm = `Ckl; starts = 2; seed = 42 })

let temp_file contents =
  let path = Filename.temp_file "gbisect-codec" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let with_temp_file text f =
  let path = temp_file text in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* A decoding this change makes on purpose: a \u escape whose four bytes
   hold a '_', or a high surrogate escaped right before a low one. *)
let hits_u_fix s =
  let n = String.length s in
  let escape i = i + 6 <= n && s.[i] = '\\' && s.[i + 1] = 'u' in
  let code i = if escape i then int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) else None in
  let rec scan i =
    i < n
    && ((escape i && String.contains (String.sub s (i + 2) 4) '_')
       || (match (code i, code (i + 6)) with
          | Some hi, Some lo -> hi land 0xfc00 = 0xd800 && lo land 0xfc00 = 0xdc00
          | _ -> false)
       || scan (i + 1))
  in
  scan 0

let same_json text =
  match (outcome Json.of_string text, outcome Ref.Json.of_string text) with
  | Ok j, Ok j' -> j = j' && String.equal (Json.to_string j) (Ref.Json.to_string j')
  | Error e, Error e' -> String.equal e e'
  | _ -> false

let bits64 r =
  Int64.(
    logor
      (shift_left (of_int (Rng.int r 0x400000)) 42)
      (logor (shift_left (of_int (Rng.int r 0x200000)) 21) (of_int (Rng.int r 0x200000))))

let codec_reference_tests =
  [
    case "writers render the reference bytes" (fun () ->
        let graphs = Lazy.force codec_corpus in
        expect_same "to_edge_list_string" Helpers.graph_print graphs (fun g ->
            String.equal (Gio.to_edge_list_string g) (Ref.Gio.to_edge_list_string g));
        expect_same "to_dot" Helpers.graph_print graphs (fun g ->
            let side = Array.init (Gbisect.Graph.n_vertices g) (fun v -> v land 1) in
            String.equal (Gio.to_dot g) (Ref.Gio.to_dot g)
            && String.equal
                 (Gio.to_dot ~highlight_cut:side g)
                 (Ref.Gio.to_dot ~highlight_cut:side g)));
    case "readers agree on edited edge lists and METIS files" (fun () ->
        let r = Rng.create ~seed:23 in
        List.iter
          (fun g ->
            List.iter
              (fun text ->
                let texts = List.filter (fun t -> not (declares_big t)) (with_edits r text) in
                expect_same "of_edge_list_string" (Printf.sprintf "%S") texts (fun t ->
                    same_graph (outcome Gio.of_edge_list_string t)
                      (outcome Ref.Gio.of_edge_list_string t));
                expect_same "of_metis_string" (Printf.sprintf "%S") texts (fun t ->
                    same_graph (outcome Gio.of_metis_string t)
                      (outcome Ref.Gio.of_metis_string t));
                (* Files take the other line iterator. *)
                expect_same "read_edge_list and read_metis" (Printf.sprintf "%S")
                  (List.filteri (fun i _ -> i mod 8 = 0) texts)
                  (fun t ->
                    with_temp_file t (fun path ->
                        same_graph (outcome Gio.read_edge_list path)
                          (outcome Ref.Gio.read_edge_list path)
                        && same_graph (outcome Gio.read_metis path)
                             (outcome Ref.Gio.read_metis path))))
              (renderings g))
          (Lazy.force codec_corpus));
    case "Json agrees on edited solve request lines" (fun () ->
        let r = Rng.create ~seed:29 in
        List.iter
          (fun g ->
            let lines =
              List.concat_map
                (fun text ->
                  with_edits r (solve_line text)
                  @ with_edits r (solve_line ~format:P.Metis text))
                (renderings g)
            in
            expect_same "Json" (Printf.sprintf "%S")
              (List.filter (fun l -> not (hits_u_fix l)) lines)
              same_json)
          (Lazy.force codec_corpus));
    case "Json agrees on \\u escapes outside the two fixes" (fun () ->
        let r = Rng.create ~seed:31 in
        let hex = "0123456789abcdefABCDEF_dD" in
        let escape () =
          "\\u" ^ String.init (Rng.int r 6) (fun _ -> hex.[Rng.int r (String.length hex)])
        in
        let texts =
          List.init 20_000 (fun _ ->
              "\"" ^ String.concat "" (List.init (1 + Rng.int r 4) (fun _ ->
                  if Rng.int r 3 = 0 then "z" else escape ())) ^ "\"")
        in
        expect_same "Json" (Printf.sprintf "%S")
          (List.filter (fun t -> not (hits_u_fix t)) texts)
          same_json);
    case "Frames agree on random chunkings and frame limits" (fun () ->
        let r = Rng.create ~seed:37 in
        List.iter
          (fun g ->
            let lines = with_edits r (solve_line (Gio.to_edge_list_string g)) in
            let stream = String.concat "\n" lines ^ "\n" in
            let n = String.length stream in
            let max_frame = 1 + Rng.int r (n / 20) in
            let ours = P.Frames.create ~max_frame and theirs = Ref.Frames.create ~max_frame in
            let pos = ref 0 in
            while !pos < n do
              let k = min (n - !pos) (1 + Rng.int r (List.nth [ 8; 100; 5000 ] (Rng.int r 3))) in
              let chunk = String.sub stream !pos k in
              pos := !pos + k;
              if P.Frames.feed ours chunk <> Ref.Frames.feed theirs chunk
                 || P.Frames.pending ours <> Ref.Frames.pending theirs
              then Alcotest.failf "frames differ at byte %d under max_frame %d" !pos max_frame
            done)
          (Lazy.force codec_corpus));
    case "floats and ints render the reference bytes" (fun () ->
        let r = Rng.create ~seed:41 in
        let floats =
          List.init 200_000 (fun i ->
              match i mod 5 with
              | 0 -> Rng.float r 1.0 *. (10. ** float_of_int (Rng.int r 30 - 15))
              | 1 -> Int64.float_of_bits (bits64 r)
              | 2 -> float_of_int (Rng.int r 2_000_001 - 1_000_000) /. 1000.
              | 3 -> -.Rng.float r 1e6
              | _ -> (if Rng.bool r then 1. else -1.) *. (9007199254740992. +. float_of_int (Rng.int r 4001 - 2000)))
        in
        expect_same "Float" (Printf.sprintf "%h") floats (fun f ->
            let v = Json.List [ Json.Float f ] in
            String.equal (Json.to_string v) (Ref.Json.to_string v)
            && (Float.is_finite f
               || outcome (Json.to_string ~strict:true) v
                  = outcome (Ref.Json.to_string ~strict:true) v));
        let ints =
          min_int :: max_int :: 0
          :: List.init 200_000 (fun i ->
                 match i mod 4 with
                 | 0 -> Int64.to_int (bits64 r)
                 | 1 -> Rng.int r 2001 - 1000
                 | 2 -> (if Rng.bool r then 1 else -1) * int_of_float (10. ** float_of_int (Rng.int r 19)) + Rng.int r 3 - 1
                 | _ -> if Rng.bool r then min_int + Rng.int r 1000 else max_int - Rng.int r 1000)
        in
        expect_same "Int" string_of_int ints (fun i ->
            String.equal (Json.to_string (Json.Int i)) (Ref.Json.to_string (Json.Int i))));
  ]

let () = Alcotest.run "codec" [ ("codec reference", codec_reference_tests) ]
