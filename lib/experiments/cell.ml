module Rng = Gb_prng.Rng
module Json = Gb_obs.Json
module Telemetry = Gb_obs.Telemetry
module Store = Gb_store.Store
module Pool = Gb_par.Pool

type 'a codec = { encode : 'a -> Json.t; decode : Json.t -> 'a option }

type 'a row = {
  label : string;
  replicates : int;
  seed : int -> int;
  compute : Rng.t -> 'a;
}

let seed profile tag label j =
  Rng.seed_of_string (Printf.sprintf "%d/%s/%s/%d" profile.Profile.master_seed tag label j)

(* Every element decoded, or None. *)
let all_of_json decode = function
  | Json.List xs ->
      let xs = List.map decode xs in
      if List.exists Option.is_none xs then None else Some (List.map Option.get xs)
  | _ -> None

let floats =
  {
    encode = (fun a -> Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a)));
    decode = (fun j -> Option.map Array.of_list (all_of_json Json.to_float j));
  }

let records =
  {
    encode = (fun rs -> Json.List (List.map Telemetry.to_json rs));
    decode = all_of_json Telemetry.of_json;
  }

let column_means = function
  | [] -> [||]
  | first :: _ as rows ->
      Array.init (Array.length first) (fun i -> Table.mean (List.map (fun a -> a.(i)) rows))

(* A stored cell is its value and the records computing it emitted; a
   hit replays the records, so the telemetry stream of a rerun is the
   stream of the run that computed the cell. *)
let through_store store key codec compute =
  let decode j =
    match (Option.bind (Json.member "value" j) codec.decode, Json.member "records" j) with
    | Some v, Some rs -> Option.map (fun rs -> (v, rs)) (records.decode rs)
    | _ -> None
  in
  match Option.bind (Store.find store key) decode with
  | Some (v, rs) ->
      List.iter Telemetry.emit rs;
      v
  | None ->
      (* The tap travels to pool workers inside the telemetry snapshot,
         so records from a start fan-out inside the cell are captured. *)
      let mutex = Mutex.create () in
      let captured = ref [] in
      let v =
        Telemetry.with_tap
          (fun r -> Mutex.protect mutex (fun () -> captured := r :: !captured))
          compute
      in
      Store.add store key
        (Json.Obj
           [ ("value", codec.encode v); ("records", records.encode (List.rev !captured)) ]);
      v

let run profile ~tag codec rows =
  let cells =
    List.concat_map (fun row -> List.init (max 1 row.replicates) (fun j -> (row, j))) rows
  in
  let store = Store.current () in
  let context = Telemetry.capture () in
  let telemetry = if Telemetry.writer_installed () then "on" else "off" in
  let cell (row, j) =
    let seed = row.seed j in
    let compute () = row.compute (Rng.create ~seed) in
    Telemetry.with_snapshot context (fun () ->
        Telemetry.with_context
          ~graph:(Printf.sprintf "%s/%s/rep%d" tag row.label j)
          ~seed
          (fun () ->
            match store with
            | None -> compute ()
            | Some store ->
                let key =
                  Store.key
                    [
                      ("kind", "table-cell");
                      ("profile", Profile.fingerprint profile);
                      ("table", tag);
                      ("row", row.label);
                      ("replicate", string_of_int j);
                      ("seed", string_of_int seed);
                      ("telemetry", telemetry);
                    ]
                in
                through_store store key codec compute))
  in
  (* Cells went in row-major order, so each row owns the next run of
     [replicates] values. *)
  let rec regroup rows values =
    match rows with
    | [] -> []
    | row :: rest ->
        let n = max 1 row.replicates in
        List.filteri (fun i _ -> i < n) values
        :: regroup rest (List.filteri (fun i _ -> i >= n) values)
  in
  regroup rows (Pool.map_list (Pool.current ()) cell cells)
