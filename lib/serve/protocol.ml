(* Codec for the v1 serving protocol. SERVING.md is the normative
   description of every shape produced and accepted here; the two are
   kept in lockstep by the test suite and the serve-codec fuzz
   oracle. *)

module Json = Gb_obs.Json
module Algo = Gb_algo.Algo

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)

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
    let n = Buffer.length t.buf in
    let n = if n > 0 && Buffer.nth t.buf (n - 1) = '\r' then n - 1 else n in
    let s = Buffer.sub t.buf 0 n in
    Buffer.clear t.buf;
    s

  let blank s = String.length (String.trim s) = 0

  (* A run of bytes up to the next newline is appended at once. A run
     that would take the line past [max_frame] is reported as the
     [max_frame + 1] bytes the line had reached when it overflowed. *)
  let feed t chunk =
    let out = ref [] in
    let len = String.length chunk in
    let pos = ref 0 in
    while !pos < len do
      let nl = match String.index_from chunk !pos '\n' with i -> i | exception Not_found -> len in
      if (not t.discarding) && Buffer.length t.buf + (nl - !pos) > t.max_frame then begin
        out := `Oversized (t.max_frame + 1) :: !out;
        Buffer.clear t.buf;
        t.discarding <- true
      end;
      if not t.discarding then Buffer.add_substring t.buf chunk !pos (nl - !pos);
      if nl < len then
        if t.discarding then t.discarding <- false
        else begin
          let line = take_line t in
          if not (blank line) then out := `Line line :: !out
        end;
      pos := nl + 1
    done;
    List.rev !out

  let pending t = Buffer.length t.buf
end

(* ------------------------------------------------------------------ *)
(* Wire vocabularies                                                   *)

type algorithm = Algo.t

type graph_format = Edge_list | Metis

let format_id = function Edge_list -> "edge-list" | Metis -> "metis"

let format_of_id s =
  match String.lowercase_ascii s with
  | "edge-list" -> Some Edge_list
  | "metis" -> Some Metis
  | _ -> None

type solve = {
  id : string option;
  format : graph_format;
  data : string;
  algorithm : algorithm;
  starts : int;
  seed : int;
}

type request =
  | Solve of solve
  | Ping of string option
  | Stats of string option
  | Shutdown of string option

let request_id = function
  | Solve s -> s.id
  | Ping id | Stats id | Shutdown id -> id

type error_code =
  | Bad_request
  | Unsupported
  | Too_large
  | Overloaded
  | Shutting_down
  | Internal

let error_code_id = function
  | Bad_request -> "bad_request"
  | Unsupported -> "unsupported"
  | Too_large -> "too_large"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let error_code_of_id = function
  | "bad_request" -> Some Bad_request
  | "unsupported" -> Some Unsupported
  | "too_large" -> Some Too_large
  | "overloaded" -> Some Overloaded
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

type solved = {
  algorithm : algorithm;
  cut : int;
  n0 : int;
  n1 : int;
  side : int array;
  balanced : bool;
  seconds : float;
  cached : bool;
}

type stats = {
  uptime_seconds : float;
  requests : int;
  solved : int;
  errors : int;
  overloaded : int;
  cache_hits : int;
  cache_misses : int;
  queue_depth : int;
  queue_capacity : int;
}

type reply =
  | Solved of solved
  | Pong
  | Stats_reply of stats
  | Stopping
  | Failed of error_code * string

type response = { rid : string option; reply : reply }

let ok r = match r.reply with Failed _ -> false | _ -> true

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let with_id id fields =
  match id with None -> fields | Some id -> ("id", Json.String id) :: fields

let control op id = Json.Obj (("v", Json.Int 1) :: ("op", Json.String op) :: with_id id [])

let request_to_json = function
  | Ping id -> control "ping" id
  | Stats id -> control "stats" id
  | Shutdown id -> control "shutdown" id
  | Solve s ->
      Json.Obj
        (("v", Json.Int 1) :: ("op", Json.String "solve")
        :: with_id s.id
             [
               ( "graph",
                 Json.Obj
                   [
                     ("format", Json.String (format_id s.format));
                     ("data", Json.String s.data);
                   ] );
               ("algorithm", Json.String (Algo.id s.algorithm));
               ("starts", Json.Int s.starts);
               ("seed", Json.Int s.seed);
             ])

let solved_to_json s =
  Json.Obj
    [
      ("algorithm", Json.String (Algo.id s.algorithm));
      ("cut", Json.Int s.cut);
      ("n0", Json.Int s.n0);
      ("n1", Json.Int s.n1);
      ("balanced", Json.Bool s.balanced);
      ("seconds", Json.Float s.seconds);
      ("cached", Json.Bool s.cached);
      ("side", Json.List (List.map (fun b -> Json.Int b) (Array.to_list s.side)));
    ]

let stats_to_json s =
  Json.Obj
    [
      ("uptime_seconds", Json.Float s.uptime_seconds);
      ("requests", Json.Int s.requests);
      ("solved", Json.Int s.solved);
      ("errors", Json.Int s.errors);
      ("overloaded", Json.Int s.overloaded);
      ("cache_hits", Json.Int s.cache_hits);
      ("cache_misses", Json.Int s.cache_misses);
      ("queue_depth", Json.Int s.queue_depth);
      ("queue_capacity", Json.Int s.queue_capacity);
    ]

let response_to_json { rid; reply } =
  let result r = ("ok", Json.Bool true) :: [ ("result", r) ] in
  let tail =
    match reply with
    | Solved s -> result (solved_to_json s)
    | Pong -> result (Json.Obj [ ("pong", Json.Bool true) ])
    | Stats_reply s -> result (stats_to_json s)
    | Stopping -> result (Json.Obj [ ("stopping", Json.Bool true) ])
    | Failed (code, message) ->
        [
          ("ok", Json.Bool false);
          ( "error",
            Json.Obj
              [
                ("code", Json.String (error_code_id code));
                ("message", Json.String message);
              ] );
        ]
  in
  Json.Obj (("v", Json.Int 1) :: with_id rid tail)

let request_to_line r = Json.to_string (request_to_json r)
let response_to_line r = Json.to_string (response_to_json r)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

let ( let* ) = Result.bind
let bad fmt = Printf.ksprintf (fun m -> Error (Bad_request, m)) fmt

(* Shared by requests and responses: check "v", extract "id". *)
let common_fields j =
  let* () =
    match Json.member "v" j with
    | None | Some (Json.Int 1) -> Ok ()
    | Some (Json.Int v) ->
        Error
          ( Unsupported,
            Printf.sprintf "unsupported protocol version %d (this peer speaks v1)" v )
    | Some _ -> Error (Bad_request, "field \"v\" must be an integer")
  in
  match Json.member "id" j with
  | None -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (Bad_request, "field \"id\" must be a string")

let int_field j name default =
  match Json.member name j with
  | None -> Ok default
  | Some (Json.Int v) -> Ok v
  | Some _ -> bad "field %S must be an integer" name

let parse_solve id j =
  let* format, data =
    match Json.member "graph" j with
    | None -> Error (Bad_request, "solve: missing required field \"graph\"")
    | Some g ->
        let* format =
          match Json.member "format" g with
          | None -> Ok Edge_list
          | Some (Json.String s) -> (
              match format_of_id s with
              | Some f -> Ok f
              | None ->
                  bad "solve: unknown graph format %S (\"edge-list\" or \"metis\")" s)
          | Some _ -> Error (Bad_request, "solve: \"graph\".\"format\" must be a string")
        in
        let* data =
          match Json.member "data" g with
          | Some (Json.String s) -> Ok s
          | Some _ -> Error (Bad_request, "solve: \"graph\".\"data\" must be a string")
          | None -> Error (Bad_request, "solve: missing required field \"graph\".\"data\"")
        in
        Ok (format, data)
  in
  let* algorithm =
    match Json.member "algorithm" j with
    | None -> Ok `Ckl
    | Some (Json.String s) -> (
        match Algo.of_id s with
        | Some a -> Ok a
        | None -> bad "solve: unknown algorithm %S (%s)" s (String.concat " " Algo.ids))
    | Some _ -> Error (Bad_request, "solve: \"algorithm\" must be a string")
  in
  let* starts = int_field j "starts" 2 in
  let* () = if starts >= 1 then Ok () else Error (Bad_request, "solve: \"starts\" must be >= 1") in
  let* seed = int_field j "seed" 1 in
  Ok (Solve { id; format; data; algorithm; starts; seed })

let request_of_json j =
  match j with
  | Json.Obj _ ->
      let* id = common_fields j in
      let* op =
        match Json.member "op" j with
        | Some (Json.String s) -> Ok s
        | Some _ -> Error (Bad_request, "field \"op\" must be a string")
        | None -> Error (Bad_request, "missing required field \"op\"")
      in
      (match String.lowercase_ascii op with
      | "ping" -> Ok (Ping id)
      | "stats" -> Ok (Stats id)
      | "shutdown" -> Ok (Shutdown id)
      | "solve" -> parse_solve id j
      | other -> Error (Unsupported, Printf.sprintf "unknown op %S" other))
  | _ -> Error (Bad_request, "request must be a JSON object")

let request_of_line line =
  match Json.of_string line with
  | j -> request_of_json j
  | exception Failure msg -> bad "malformed JSON: %s" msg

(* --- responses (client side) --- *)

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let rint j name =
  match Json.member name j with
  | Some (Json.Int v) -> Ok v
  | _ -> fail "response: missing integer field %S" name

let rfloat j name =
  match Option.bind (Json.member name j) Json.to_float with
  | Some v -> Ok v
  | None -> fail "response: missing numeric field %S" name

let rbool j name =
  match Json.member name j with
  | Some (Json.Bool b) -> Ok b
  | _ -> fail "response: missing boolean field %S" name

let solved_of_json j =
  let* algorithm =
    match Json.member "algorithm" j with
    | Some (Json.String s) -> (
        match Algo.of_id s with
        | Some a -> Ok a
        | None -> fail "response: unknown algorithm %S" s)
    | _ -> fail "response: missing string field \"algorithm\""
  in
  let* cut = rint j "cut" in
  let* n0 = rint j "n0" in
  let* n1 = rint j "n1" in
  let* balanced = rbool j "balanced" in
  let* seconds = rfloat j "seconds" in
  let* cached = rbool j "cached" in
  let* side =
    match Json.member "side" j with
    | Some (Json.List l) ->
        let arr = Array.make (List.length l) 0 in
        let rec fill i = function
          | [] -> Ok arr
          | Json.Int b :: rest when b = 0 || b = 1 ->
              arr.(i) <- b;
              fill (i + 1) rest
          | _ -> fail "response: \"side\" entries must be 0 or 1"
        in
        fill 0 l
    | _ -> fail "response: missing list field \"side\""
  in
  Ok { algorithm; cut; n0; n1; side; balanced; seconds; cached }

let stats_of_json j =
  let* uptime_seconds = rfloat j "uptime_seconds" in
  let* requests = rint j "requests" in
  let* solved = rint j "solved" in
  let* errors = rint j "errors" in
  let* overloaded = rint j "overloaded" in
  let* cache_hits = rint j "cache_hits" in
  let* cache_misses = rint j "cache_misses" in
  let* queue_depth = rint j "queue_depth" in
  let* queue_capacity = rint j "queue_capacity" in
  Ok
    (Stats_reply
       {
         uptime_seconds;
         requests;
         solved;
         errors;
         overloaded;
         cache_hits;
         cache_misses;
         queue_depth;
         queue_capacity;
       })

let response_of_line line =
  match Json.of_string line with
  | exception Failure msg -> fail "malformed response JSON: %s" msg
  | j ->
      let* rid =
        match common_fields j with
        | Ok id -> Ok id
        | Error (_, msg) -> Error msg
      in
      let* okf = rbool j "ok" in
      if okf then
        let* reply =
          match Json.member "result" j with
          | None -> fail "response: ok without \"result\""
          | Some r ->
              if Option.is_some (Json.member "pong" r) then Ok Pong
              else if Option.is_some (Json.member "stopping" r) then Ok Stopping
              else if Option.is_some (Json.member "cut" r) then
                Result.map (fun s -> Solved s) (solved_of_json r)
              else if Option.is_some (Json.member "requests" r) then stats_of_json r
              else fail "response: unrecognised result shape"
        in
        Ok { rid; reply }
      else
        match Json.member "error" j with
        | None -> fail "response: not ok but no \"error\""
        | Some e -> (
            match (Json.member "code" e, Json.member "message" e) with
            | Some (Json.String code), Some (Json.String message) -> (
                match error_code_of_id code with
                | Some code -> Ok { rid; reply = Failed (code, message) }
                | None -> fail "response: unknown error code %S" code)
            | _ -> fail "response: error must carry string \"code\" and \"message\"")

(* Plain structural equality is sound here: both types are first-order
   data (no closures, no cyclic values, no NaN-bearing floats in
   practice — and the oracle wants NaN inequality to fail loudly). *)
let equal_request (a : request) (b : request) = a = b
let equal_response (a : response) (b : response) = a = b
