module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Matching = Gb_graph.Matching
module Contraction = Gb_graph.Contraction
module Initial = Gb_partition.Initial
module Generators = Gb_check.Generators
module Store = Gb_store.Store
module Gio = Gb_graph.Gio
module Protocol = Gb_serve.Protocol
module Obs = Gb_obs
module Json = Gb_obs.Json

type bench_result = {
  bench : string;
  iters : int;
  ns_per_op : float;
  ns_median : float;
  ns_mad : float;
  alloc_words_per_op : float;
  promoted_words_per_op : float;
  minor_collections : int;
  major_collections : int;
}

type suite_result = {
  runs : int;
  results : bench_result list;
  peak_rss_bytes : int option;
}

let seed_for name = Rng.seed_of_string ("perf/" ^ name)

let median a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then 0.
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* One warmup, then [runs] timed executions. Time is min-of-k; the
   spread (median, MAD) is kept so the regression gate can widen its
   band on noisy hosts. Allocation is the Proc.allocated_words delta,
   deterministic for a fixed code path, so its min is exact. *)
let measure ~runs name ~iters f =
  ignore (Sys.opaque_identity (f ()));
  let ns = Array.make runs 0. in
  let best_ns = ref infinity in
  let best_alloc = ref infinity in
  let best_promoted = ref 0. in
  let best_minor = ref 0 in
  let best_major = ref 0 in
  let per_op x = x /. float_of_int iters in
  for r = 0 to runs - 1 do
    (* Settle the heap first: if the minor heap carries residue from a
       previous run, a collection mid-run promotes *those* words and the
       promoted term subtracts allocation this run never made — the min
       would then land on an undercounted, GC-phase-dependent run. After
       a full major, promotion only involves this run's own words and
       alloc/op is exact and independent of the runs count. *)
    Gc.full_major ();
    let s0 = Gc.quick_stat () in
    let w0 = Obs.Proc.allocated_words () in
    let t0 = Obs.Clock.now () in
    ignore (Sys.opaque_identity (f ()));
    let t1 = Obs.Clock.now () in
    let w1 = Obs.Proc.allocated_words () in
    let s1 = Gc.quick_stat () in
    let elapsed = per_op (Float.max 0. (t1 -. t0) *. 1e9) in
    ns.(r) <- elapsed;
    if elapsed < !best_ns then begin
      best_ns := elapsed;
      best_minor := s1.Gc.minor_collections - s0.Gc.minor_collections;
      best_major := s1.Gc.major_collections - s0.Gc.major_collections
    end;
    let alloc = per_op (w1 -. w0) in
    if alloc < !best_alloc then begin
      best_alloc := alloc;
      best_promoted := per_op (s1.Gc.promoted_words -. s0.Gc.promoted_words)
    end
  done;
  let med = median ns in
  let mad = median (Array.map (fun x -> Float.abs (x -. med)) ns) in
  {
    bench = name;
    iters;
    ns_per_op = !best_ns;
    ns_median = med;
    ns_mad = mad;
    alloc_words_per_op = !best_alloc;
    promoted_words_per_op = !best_promoted;
    minor_collections = !best_minor;
    major_collections = !best_major;
  }

(* ------------------------------------------------------------------ *)
(* The benches. Each builds its fixed inputs once (from its own seed)
   and returns a thunk that redoes identical work every run.           *)

let standard_graph name ~two_n ~d =
  Generators.gbreg_instance (Rng.create ~seed:(seed_for name)) ~two_n ~b:(two_n / 8) ~d

let bench_csr_build ~runs =
  let name = "csr.build" in
  let g = standard_graph name ~two_n:2000 ~d:4 in
  let n = Csr.n_vertices g in
  let edges = Csr.edges g in
  measure ~runs name ~iters:1 (fun () -> Csr.of_edges ~n edges)

let bench_gain_buckets ~runs =
  let name = "gain_buckets.ops" in
  let n = 4096 and range = 64 in
  let updates = 4 * n in
  (* insert n + update m + pop n individual bucket operations *)
  let iters = n + updates + n in
  let seed = seed_for name in
  measure ~runs name ~iters (fun () ->
      let rng = Rng.create ~seed in
      let b = Gb_kl.Gain_buckets.create ~capacity:n ~range in
      for v = 0 to n - 1 do
        Gb_kl.Gain_buckets.insert b v (Rng.int_in rng (-range) range)
      done;
      for _ = 1 to updates do
        Gb_kl.Gain_buckets.update b (Rng.int rng n) (Rng.int_in rng (-range) range)
      done;
      let rec drain () =
        match Gb_kl.Gain_buckets.pop_max b with Some _ -> drain () | None -> ()
      in
      drain ())

let bench_kl_pass ~runs =
  let name = Obs.Span.(name kl_pass) in
  let rng = Rng.create ~seed:(seed_for name) in
  let g = Generators.gbreg_instance rng ~two_n:1000 ~b:50 ~d:4 in
  let side = Initial.random rng g in
  measure ~runs name ~iters:1 (fun () -> Gb_kl.Kl.one_pass g side)

let bench_fm_pass ~runs =
  let name = Obs.Span.(name fm_pass) in
  let rng = Rng.create ~seed:(seed_for name) in
  let g = Generators.gbreg_instance rng ~two_n:1000 ~b:50 ~d:4 in
  let side = Initial.random rng g in
  measure ~runs name ~iters:1 (fun () -> Gb_kl.Fm.one_pass g side)

let bench_sa_plateau ~runs =
  let name = Obs.Span.(name sa_plateau) in
  let setup_rng = Rng.create ~seed:(seed_for name) in
  let g = Generators.g2set_instance setup_rng ~two_n:300 ~avg_degree:4.0 ~bis:30 in
  let side = Initial.random setup_rng g in
  let schedule =
    {
      Gb_anneal.Schedule.quick with
      initial_temperature = Gb_anneal.Schedule.Fixed_temperature 2.0;
      max_temperatures = 2;
    }
  in
  let run_seed = Rng.derive_seed setup_rng in
  measure ~runs name ~iters:2 (fun () ->
      Gb_anneal.Sa_bisect.refine ~schedule (Rng.substream ~base:run_seed 0) g side)

let bench_matching_contract ~runs =
  let name = "matching.contract" in
  let setup_rng = Rng.create ~seed:(seed_for name) in
  let g = Generators.gbreg_instance setup_rng ~two_n:1000 ~b:50 ~d:4 in
  let run_seed = Rng.derive_seed setup_rng in
  measure ~runs name ~iters:1 (fun () ->
      let rng = Rng.substream ~base:run_seed 0 in
      let m = Matching.random_maximal rng g in
      Contraction.contract g m)

let bench_store_roundtrip ~scratch ~runs =
  let name = "store.roundtrip" in
  let records = 32 in
  let values =
    List.init records (fun i ->
        ( Store.key
            [ ("bench", "perf"); ("cell", string_of_int i); ("suite", "core") ],
          Json.Obj [ ("cut", Json.Int (100 + i)); ("seconds", Json.Float 0.5) ] ))
  in
  (* A fresh directory per execution keeps every run on the identical
     cold-open code path (zero-padded so path lengths match too). *)
  let counter = ref 0 in
  measure ~runs name ~iters:records (fun () ->
      incr counter;
      let dir = Filename.concat scratch (Printf.sprintf "store-%04d" !counter) in
      let store = Store.open_store dir in
      List.iter (fun (k, v) -> Store.add store k v) values;
      List.iter (fun (k, _) -> ignore (Store.find store k)) values;
      Store.close store)

let bench_fuzz_generate ~runs =
  let name = "fuzz.generate" in
  let batch = 64 in
  measure ~runs name ~iters:batch (fun () ->
      for seed = 0 to batch - 1 do
        ignore (Sys.opaque_identity (Generators.generate ~seed))
      done)

(* The text path of one served solve, with no solve and no store: frame
   a Gnp(5000, d=4) request arriving in 64 KiB reads, decode it, parse
   and canonicalise its graph, and encode a 5000-vertex answer. *)
let bench_serve_request ~runs =
  let name = "serve.request" in
  let rng = Rng.create ~seed:(seed_for name) in
  let g = Gb_models.Gnp.with_average_degree rng ~n:5000 ~avg_degree:4. in
  let line =
    Protocol.request_to_line
      (Protocol.Solve
         {
           id = Some name;
           format = Protocol.Edge_list;
           data = Gio.to_edge_list_string g;
           algorithm = `Ckl;
           starts = 2;
           seed = 1;
         })
    ^ "\n"
  in
  let chunks =
    List.init
      ((String.length line + 65535) / 65536)
      (fun i -> String.sub line (i * 65536) (min 65536 (String.length line - (i * 65536))))
  in
  let side = Initial.random rng g in
  let n0, n1 = Gb_partition.Bisection.side_counts side in
  let reply =
    {
      Protocol.rid = Some name;
      reply =
        Protocol.Solved
          {
            algorithm = `Ckl;
            cut = Gb_partition.Bisection.compute_cut g side;
            n0;
            n1;
            side;
            balanced = true;
            seconds = 0.0123;
            cached = false;
          };
    }
  in
  measure ~runs name ~iters:1 (fun () ->
      let frames = Protocol.Frames.create ~max_frame:Gb_serve.Server.default_config.max_frame in
      match List.concat_map (Protocol.Frames.feed frames) chunks with
      | [ `Line line ] -> (
          match Protocol.request_of_line line with
          | Ok (Protocol.Solve s) ->
              (Gio.to_edge_list_string (Gio.of_edge_list_string s.data), Protocol.response_to_line reply)
          | _ -> failwith "serve.request: the request did not decode")
      | _ -> failwith "serve.request: the request did not frame as one line")

let run ?(runs = 5) ~scratch () =
  let runs = max 1 runs in
  let results =
    [
      bench_csr_build ~runs;
      bench_fuzz_generate ~runs;
      bench_gain_buckets ~runs;
      bench_kl_pass ~runs;
      bench_fm_pass ~runs;
      bench_sa_plateau ~runs;
      bench_matching_contract ~runs;
      bench_store_roundtrip ~scratch ~runs;
      bench_serve_request ~runs;
    ]
  in
  let results =
    List.sort (fun a b -> String.compare a.bench b.bench) results
  in
  { runs; results; peak_rss_bytes = Obs.Proc.peak_rss_bytes () }

(* ------------------------------------------------------------------ *)
(* Artifact                                                            *)

let bench_to_json b =
  Json.Obj
    [
      ("iters", Json.Int b.iters);
      ("ns_per_op", Json.Float b.ns_per_op);
      ("ns_median", Json.Float b.ns_median);
      ("ns_mad", Json.Float b.ns_mad);
      ("alloc_words_per_op", Json.Float b.alloc_words_per_op);
      ("promoted_words_per_op", Json.Float b.promoted_words_per_op);
      ("minor_collections", Json.Int b.minor_collections);
      ("major_collections", Json.Int b.major_collections);
    ]

let to_json s =
  Obs.Proc.artifact ~suite:"core"
    [
      ("runs", Json.Int s.runs);
      ( "benches",
        Json.Obj (List.map (fun b -> (b.bench, bench_to_json b)) s.results) );
      ( "peak_rss_bytes",
        match s.peak_rss_bytes with Some b -> Json.Int b | None -> Json.Null );
    ]

(* Numbers for reports go through the canonical Json float printer
   (shortest round-trip; integral floats print as integers), after
   rounding to one decimal — no lossy printf float conversions. *)
let number f = Json.to_string (Json.Float (Float.round (f *. 10.) /. 10.))

let render s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "core suite: %d benches, min of %d runs\n"
       (List.length s.results) s.runs);
  Buffer.add_string buf
    (Printf.sprintf "  %-20s %14s %16s %9s %9s\n" "bench" "ns/op" "alloc w/op"
       "minor gc" "major gc");
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "  %-20s %14s %16s %9d %9d\n" b.bench (number b.ns_per_op)
           (number b.alloc_words_per_op) b.minor_collections b.major_collections))
    s.results;
  (match s.peak_rss_bytes with
  | Some bytes -> Buffer.add_string buf (Printf.sprintf "peak rss: %d bytes\n" bytes)
  | None -> ());
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)

type verdict = { report : string; failures : int; warnings : int }

let percent delta = Printf.sprintf "%+d%%" (int_of_float (Float.round (100. *. delta)))

let check ?(tolerance = 0.05) ~baseline current =
  let buf = Buffer.create 1024 in
  let failures = ref 0 in
  let warnings = ref 0 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let base_schema =
    match Json.member "schema_version" baseline with Some (Json.Int v) -> v | _ -> -1
  in
  if base_schema <> Obs.Proc.schema_version then begin
    incr failures;
    line "FAIL  baseline schema_version %d, this binary writes %d" base_schema
      Obs.Proc.schema_version
  end
  else begin
    let base_ocaml =
      match Option.bind (Json.member "host" baseline) (Json.member "ocaml_version") with
      | Some (Json.String v) -> v
      | _ -> ""
    in
    let same_ocaml = String.equal base_ocaml Sys.ocaml_version in
    if not same_ocaml then begin
      incr warnings;
      line "warn  baseline built with OCaml %s, running %s: alloc gate downgraded"
        (if base_ocaml = "" then "<unknown>" else base_ocaml)
        Sys.ocaml_version
    end;
    let base_benches =
      match Json.member "benches" baseline with Some (Json.Obj kvs) -> kvs | _ -> []
    in
    let field bench key =
      Option.bind (List.assoc_opt bench base_benches) (fun j ->
          Option.bind (Json.member key j) Json.to_float)
    in
    List.iter
      (fun b ->
        match (field b.bench "ns_per_op", field b.bench "alloc_words_per_op") with
        | None, _ | _, None ->
            incr warnings;
            line "warn  %-20s not in baseline (new bench? refresh the baseline)"
              b.bench
        | Some base_ns, Some base_alloc ->
            (* Time: widen the band to 3 MADs of the current run, and
               never gate hard — shared runners are too noisy. *)
            let noise =
              if b.ns_median > 0. then 3. *. b.ns_mad /. b.ns_median else 0.
            in
            let time_tol = Float.max tolerance noise in
            let dt =
              if base_ns > 0. then (b.ns_per_op -. base_ns) /. base_ns else 0.
            in
            let da =
              if base_alloc > 0. then
                (b.alloc_words_per_op -. base_alloc) /. base_alloc
              else if b.alloc_words_per_op > 0. then 1.
              else 0.
            in
            let time_status =
              if dt > time_tol then begin
                incr warnings;
                "slower"
              end
              else if dt < -.time_tol then "faster"
              else "ok"
            in
            let alloc_status =
              if Float.abs da > tolerance then
                if da > 0. && same_ocaml then begin
                  incr failures;
                  "FAIL"
                end
                else begin
                  incr warnings;
                  if da > 0. then "more" else "less"
                end
              else "ok"
            in
            let status =
              if String.equal alloc_status "FAIL" then "FAIL"
              else if String.equal time_status "slower" || String.equal alloc_status "more"
              then "warn"
              else "ok"
            in
            line
              "%-5s %-20s time %10s -> %10s ns/op (%s, tol %s, %s)  alloc %12s -> %12s w/op (%s, %s)"
              status b.bench (number base_ns) (number b.ns_per_op) (percent dt)
              (percent time_tol) time_status (number base_alloc)
              (number b.alloc_words_per_op) (percent da) alloc_status)
      current.results;
    List.iter
      (fun (name, _) ->
        if not (List.exists (fun b -> String.equal b.bench name) current.results)
        then begin
          incr warnings;
          line "warn  %-20s in baseline but not produced by this binary" name
        end)
      base_benches
  end;
  line "%d failure(s), %d warning(s)" !failures !warnings;
  { report = Buffer.contents buf; failures = !failures; warnings = !warnings }
