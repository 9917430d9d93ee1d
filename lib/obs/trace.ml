type sink = Noop | Writer of { write : string -> unit; close_writer : unit -> unit }

(* Start timestamp in microseconds and {!Proc.allocated_words} at the
   start; [t0 = nan] is the shared null span a disabled [start] returns. *)
type span = { t0 : float; words0 : float }

let null = { t0 = Float.nan; words0 = 0. }

let noop = Noop
let of_writer write = Writer { write; close_writer = ignore }

let to_file path =
  let oc = open_out path in
  Writer { write = output_string oc; close_writer = (fun () -> close_out oc) }

(* The sink is installed once at startup but written from every domain:
   the cell is Atomic so installs are published race-free, and
   [sink_mutex] serialises writes (and close) so each event line lands
   whole in the output. *)
let current = Atomic.make Noop
let sink_mutex = Mutex.create ()

let close () =
  Mutex.protect sink_mutex (fun () ->
      (match Atomic.get current with Noop -> () | Writer w -> w.close_writer ());
      Atomic.set current Noop)

let set sink =
  close ();
  Mutex.protect sink_mutex (fun () -> Atomic.set current sink)

let () = at_exit close
let enabled () = match Atomic.get current with Noop -> false | Writer _ -> true

let now_us () = Clock.now () *. 1e6

(* One trace_event object per line. pid is constant; tid is the domain
   id, so a parallel run renders as one Perfetto track per domain. *)
let emit ~ph ?dur ?(args = []) ~ts name =
  match Atomic.get current with
  | Noop -> ()
  | Writer _ ->
      let fields =
        [
          ("name", Json.String (Span.name name));
          ("cat", Json.String "gbisect");
          ("ph", Json.String ph);
          (* integral µs: full precision survives the compact float
             printer even at epoch scale *)
          ("ts", Json.Float (Float.round ts));
          ("pid", Json.Int 1);
          ("tid", Json.Int ((Domain.self () :> int) + 1));
        ]
      in
      let fields =
        match dur with
        | Some d -> fields @ [ ("dur", Json.Float (Float.round d)) ]
        | None -> fields
      in
      let fields = match args with [] -> fields | _ -> fields @ [ ("args", Json.Obj args) ] in
      let line = Json.to_string (Json.Obj fields) ^ "\n" in
      (* Serialise the write itself, re-checking the sink under the
         lock in case another domain closed it meanwhile. *)
      Mutex.protect sink_mutex (fun () ->
          match Atomic.get current with Noop -> () | Writer w -> w.write line)

let start () = if enabled () then { t0 = now_us (); words0 = Proc.allocated_words () } else null

let finish ?(args = []) span name =
  if enabled () && not (Float.is_nan span.t0) then begin
    let words = Proc.allocated_words () -. span.words0 in
    let args = args @ [ ("alloc_words", Json.Int (Float.to_int words)) ] in
    emit ~ph:"X" ~dur:(Float.max 0. (now_us () -. span.t0)) ~args ~ts:span.t0 name
  end

let with_span ?args name f =
  if not (enabled ()) then f ()
  else begin
    let span = start () in
    Fun.protect ~finally:(fun () -> finish ?args span name) f
  end

let instant ?args name = if enabled () then emit ~ph:"i" ?args ~ts:(now_us ()) name
