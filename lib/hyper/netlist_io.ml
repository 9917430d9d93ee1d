let split_ws line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse ~one_based ~header_reversed s ~what =
  let fail lineno msg = failwith (Printf.sprintf "%s, line %d: %s" what lineno msg) in
  let parse_int lineno tok =
    match int_of_string_opt tok with
    | Some v -> v
    | None -> fail lineno (Printf.sprintf "not an integer: %S" tok)
  in
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) ->
           let t = String.trim l in
           t = "" || (t.[0] <> '#' && t.[0] <> '%'))
  in
  let rec drop_blank = function
    | (_, l) :: rest when String.trim l = "" -> drop_blank rest
    | lines -> lines
  in
  match drop_blank lines with
  | [] -> failwith (what ^ ": empty input")
  | (hline, header) :: rest -> (
      match split_ws header with
      | [ a; b ] ->
          let x = parse_int hline a and y = parse_int hline b in
          let n, n_nets = if header_reversed then (y, x) else (x, y) in
          if n < 0 || n_nets < 0 then fail hline "negative counts";
          let rec take k acc = function
            | rest when k = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | line :: rest -> take (k - 1) (line :: acc) rest
          in
          let net_lines, excess = take n_nets [] rest in
          if List.length net_lines <> n_nets then
            failwith
              (Printf.sprintf "%s: header declares %d nets, found %d" what n_nets
                 (List.length net_lines));
          List.iter
            (fun (lineno, l) ->
              if String.trim l <> "" then fail lineno "content after the net lines")
            excess;
          let nets =
            List.map
              (fun (lineno, line) ->
                match split_ws line with
                | [] -> fail lineno "empty net"
                | toks ->
                    List.map
                      (fun tok ->
                        let v = parse_int lineno tok in
                        let v = if one_based then v - 1 else v in
                        if v < 0 || v >= n then fail lineno "vertex id out of range";
                        v)
                      toks)
              net_lines
          in
          Hgraph.of_nets ~n nets
      | _ -> fail hline "expected a two-field header")

let of_string s = parse ~one_based:false ~header_reversed:false s ~what:"netlist"
let of_hmetis_string s = parse ~one_based:true ~header_reversed:true s ~what:"hmetis"

let read path =
  let ic = open_in path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string s
