type counter = { c_name : string; c_value : int Atomic.t }

let n_buckets = 34 (* bucket 0: v < 1; buckets 1..32: [2^(i-1), 2^i); 33: rest *)

type histogram = {
  h_name : string;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
  h_buckets : int Atomic.t array;
}

type histogram_snapshot = {
  count : int;
  sum : float;
  min_value : float;
  max_value : float;
  buckets : (float * int) list;
}

let switch = Atomic.make false
let set_enabled b = Atomic.set switch b
(* Lock-free float accumulators: retry the compare-and-set until our
   read was not overtaken. Atomic.t boxes the float, and we CAS against
   the exact box we read, so the loop is ABA-safe. *)
let rec update_float a f =
  let seen = Atomic.get a in
  let updated = f seen in
  if updated != seen && not (Atomic.compare_and_set a seen updated) then update_float a f

let add_float a v = update_float a (fun x -> x +. v)
let min_float a v = update_float a (fun x -> if v < x then v else x)
let max_float a v = update_float a (fun x -> if v > x then v else x)

(* The registries are plain Hashtbls guarded by one mutex: interning
   happens once per name (at module initialisation of the instrumented
   library) and snapshots are rare, so the lock is never contended on a
   hot path — bumping an interned instrument is lock-free. *)
let registry_mutex = Mutex.create ()

(* lint: allow no-naked-mutable-global, par-unsafe-state — every access interns through registry_mutex *)
let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 32
(* lint: allow no-naked-mutable-global, par-unsafe-state — every access interns through registry_mutex *)
let histogram_registry : (string, histogram) Hashtbl.t = Hashtbl.create 32

let intern registry name make =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some v -> v
      | None ->
          let v = make () in
          Hashtbl.add registry name v;
          v)

let counter name =
  intern counter_registry name (fun () -> { c_name = name; c_value = Atomic.make 0 })

let incr c = if Atomic.get switch then ignore (Atomic.fetch_and_add c.c_value 1)
let add c n = if Atomic.get switch then ignore (Atomic.fetch_and_add c.c_value n)
let histogram name =
  intern histogram_registry name (fun () ->
      {
        h_name = name;
        h_count = Atomic.make 0;
        h_sum = Atomic.make 0.;
        h_min = Atomic.make infinity;
        h_max = Atomic.make neg_infinity;
        h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
      })

(* Index of the log2 bucket of [v]: 0 for v < 1, else 1 + floor(log2 v),
   clamped to the array. *)
let bucket_index v =
  if not (v >= 1.) then 0
  else
    let _, e = Float.frexp v in
    (* v = m * 2^e with 0.5 <= m < 1, so 2^(e-1) <= v < 2^e. *)
    min (n_buckets - 1) (max 1 e)

let bucket_upper_bound i =
  if i = 0 then 1.
  else if i = n_buckets - 1 then infinity
  else Float.ldexp 1. i

let observe h v =
  if Atomic.get switch then begin
    ignore (Atomic.fetch_and_add h.h_count 1);
    add_float h.h_sum v;
    min_float h.h_min v;
    max_float h.h_max v;
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_index v) 1)
  end

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counter_registry;
      Hashtbl.iter
        (fun _ h ->
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0.;
          Atomic.set h.h_min infinity;
          Atomic.set h.h_max neg_infinity;
          Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
        histogram_registry)

let sorted_names tbl =
  Hashtbl.fold (fun name _ acc -> name :: acc) tbl [] |> List.sort String.compare

let counters () =
  Mutex.protect registry_mutex (fun () ->
      List.map
        (fun name -> (name, Atomic.get (Hashtbl.find counter_registry name).c_value))
        (sorted_names counter_registry))

let snapshot_of h =
  let buckets = ref [] in
  for i = n_buckets - 1 downto 0 do
    let c = Atomic.get h.h_buckets.(i) in
    if c > 0 then buckets := (bucket_upper_bound i, c) :: !buckets
  done;
  {
    count = Atomic.get h.h_count;
    sum = Atomic.get h.h_sum;
    min_value = Atomic.get h.h_min;
    max_value = Atomic.get h.h_max;
    buckets = !buckets;
  }

let histograms () =
  Mutex.protect registry_mutex (fun () ->
      List.map
        (fun name -> (name, snapshot_of (Hashtbl.find histogram_registry name)))
        (sorted_names histogram_registry))

let snapshot_json () =
  let counter_fields = List.map (fun (name, v) -> (name, Json.Int v)) (counters ()) in
  let histogram_fields =
    List.map
      (fun (name, s) ->
        ( name,
          Json.Obj
            [
              ("count", Json.Int s.count);
              ("sum", Json.Float s.sum);
              ("min", Json.Float s.min_value);
              ("max", Json.Float s.max_value);
              ( "buckets",
                Json.List
                  (List.map
                     (fun (le, n) ->
                       Json.Obj [ ("le", Json.Float le); ("count", Json.Int n) ])
                     s.buckets) );
            ] ))
      (histograms ())
  in
  Json.Obj [ ("counters", Json.Obj counter_fields); ("histograms", Json.Obj histogram_fields) ]

let render () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "counters:\n";
  List.iter
    (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-32s %d\n" name v))
    (counters ());
  let hs = histograms () in
  if hs <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun (name, s) ->
        if s.count = 0 then
          Buffer.add_string buf (Printf.sprintf "  %-32s (empty)\n" name)
        else
          Buffer.add_string buf
            (* lint: allow no-float-format — human-readable metrics report, never parsed back *)
            (Printf.sprintf "  %-32s count %d  mean %.2f  min %g  max %g\n" name s.count
               (s.sum /. float_of_int s.count)
               s.min_value s.max_value))
      hs
  end;
  Buffer.contents buf
