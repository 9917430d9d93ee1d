type record = {
  algorithm : string;
  graph : string;
  profile : string;
  seed : int option;
  start : int;
  cut : int;
  seconds : float;
  balanced : bool;
  trajectory : (string * float) list;
  metrics : (string * Json.t) list;
}

let to_json r =
  Json.Obj
    [
      ("algorithm", Json.String r.algorithm);
      ("graph", Json.String r.graph);
      ("profile", Json.String r.profile);
      ("seed", match r.seed with Some s -> Json.Int s | None -> Json.Null);
      ("start", Json.Int r.start);
      ("cut", Json.Int r.cut);
      ("seconds", Json.Float r.seconds);
      ("balanced", Json.Bool r.balanced);
      ( "trajectory",
        Json.List
          (List.map
             (fun (k, v) -> Json.Obj [ ("k", Json.String k); ("v", Json.Float v) ])
             r.trajectory) );
      ("metrics", Json.Obj r.metrics);
    ]

(* Inverse of [to_json], for replaying store-cached records. Shape
   errors yield [None] (the cache entry is then treated as a miss). *)
let of_json j =
  let str k = match Json.member k j with Some (Json.String s) -> Some s | _ -> None in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  let flt k = Option.bind (Json.member k j) Json.to_float in
  let point = function
    | Json.Obj _ as p -> (
        match (Json.member "k" p, Option.bind (Json.member "v" p) Json.to_float) with
        | Some (Json.String k), Some v -> Some (k, v)
        | _ -> None)
    | _ -> None
  in
  match
    ( str "algorithm",
      str "graph",
      str "profile",
      int "start",
      int "cut",
      flt "seconds",
      Json.member "balanced" j,
      Json.member "trajectory" j,
      Json.member "metrics" j )
  with
  | ( Some algorithm,
      Some graph,
      Some profile,
      Some start,
      Some cut,
      Some seconds,
      Some (Json.Bool balanced),
      Some (Json.List points),
      Some (Json.Obj metrics) ) ->
      let seed =
        match Json.member "seed" j with Some (Json.Int s) -> Some s | _ -> None
      in
      let trajectory = List.map point points in
      if List.exists Option.is_none trajectory then None
      else
        Some
          {
            algorithm;
            graph;
            profile;
            seed;
            start;
            cut;
            seconds;
            balanced;
            trajectory = List.map Option.get trajectory;
            metrics;
          }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Collector

   The trajectory buffer is domain-local: each worker domain of a
   parallel fan-out accumulates its run's samples privately (a fresh
   domain starts with no collector), so concurrent runs can never
   interleave their trajectories. The buffer is turned into a record
   field — and the record emitted whole — when the run ends.           *)

let collector_key : (string * float) list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let sample label v =
  match Domain.DLS.get collector_key with
  | None -> ()
  | Some points -> points := (Span.name label, v) :: !points

let collecting () = Domain.DLS.get collector_key <> None

let with_collector f =
  let previous = Domain.DLS.get collector_key in
  let points = ref [] in
  Domain.DLS.set collector_key (Some points);
  let result =
    Fun.protect ~finally:(fun () -> Domain.DLS.set collector_key previous) f
  in
  (result, List.rev !points)

(* ------------------------------------------------------------------ *)
(* Context

   Also domain-local. A fan-out point that moves work onto pool domains
   captures the ambient context first and re-establishes it inside each
   task (the pool cannot do this itself: it knows nothing about obs).  *)

type context = {
  graph : string option;
  seed : int option;
  (* Cell-scoped record capture (the result store's miss path). Part of
     the context so that capture/with_snapshot carry it onto pool
     workers along with the labels; the tap closure itself must be
     domain-safe (taps append under their own mutex). *)
  tap : (record -> unit) option;
}

type snapshot = context

let context_key : context Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { graph = None; seed = None; tap = None })

let with_context ?graph ?seed f =
  let previous = Domain.DLS.get context_key in
  let pick fresh inherited = match fresh with Some _ -> fresh | None -> inherited in
  Domain.DLS.set context_key
    {
      previous with
      graph = pick graph previous.graph;
      seed = pick seed previous.seed;
    };
  Fun.protect ~finally:(fun () -> Domain.DLS.set context_key previous) f

let with_tap tap f =
  let previous = Domain.DLS.get context_key in
  Domain.DLS.set context_key { previous with tap = Some tap };
  Fun.protect ~finally:(fun () -> Domain.DLS.set context_key previous) f

let capture () = Domain.DLS.get context_key

let with_snapshot snapshot f =
  let previous = Domain.DLS.get context_key in
  Domain.DLS.set context_key snapshot;
  Fun.protect ~finally:(fun () -> Domain.DLS.set context_key previous) f

let context_graph () = (Domain.DLS.get context_key).graph
let context_seed () = (Domain.DLS.get context_key).seed

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

(* Atomic install, mutex-serialised use: a writer swap is published to
   every domain race-free, and concurrent emits queue on the mutex so
   each telemetry line reaches the writer whole. *)
let writer : (record -> unit) option Atomic.t = Atomic.make None
let emit_mutex = Mutex.create ()

let set_writer w = Mutex.protect emit_mutex (fun () -> Atomic.set writer w)
let writer_installed () = Option.is_some (Atomic.get writer)

let emit r =
  (* The ambient tap (the result store capturing a cell) sees every
     record whether or not a writer is installed. *)
  (match (Domain.DLS.get context_key).tap with None -> () | Some tap -> tap r);
  (* Serialised so that records from concurrent domains reach the
     writer one at a time and each telemetry.jsonl line stays whole. *)
  match Atomic.get writer with
  | None -> ()
  | Some _ ->
      Mutex.protect emit_mutex (fun () ->
          match Atomic.get writer with None -> () | Some w -> w r)

(* Labels first, then the rest of the record without [seconds], the
   one field that differs between two runs of the same work. *)
let compare_by_labels (a : record) (b : record) =
  let c = String.compare a.graph b.graph in
  if c <> 0 then c
  else
    let c = String.compare a.algorithm b.algorithm in
    if c <> 0 then c
    else
      let c = String.compare a.profile b.profile in
      if c <> 0 then c
      else
        let c = Option.compare Int.compare a.seed b.seed in
        if c <> 0 then c
        else
          let c = Int.compare a.start b.start in
          if c <> 0 then c
          else
            let rest r = Json.to_string (to_json { r with seconds = 0. }) in
            String.compare (rest a) (rest b)

let to_channel oc r =
  output_string oc (Json.to_string (to_json r));
  output_char oc '\n';
  flush oc
