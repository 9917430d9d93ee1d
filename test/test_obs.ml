(* Tests for Gb_obs: the JSON codec, counters/histograms, the trace
   sink, telemetry records, and — the contract that matters most — that
   turning observability on changes neither results nor RNG streams. *)

module Obs = Gbisect.Obs
module Json = Obs.Json
module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Span = Obs.Span
module Telemetry = Obs.Telemetry
module Clock = Obs.Clock
module Proc = Obs.Proc
module Pool = Gbisect.Pool
module Classic = Gbisect.Classic
module Kl = Gbisect.Kl
module Rng = Gbisect.Rng
module Runner = Gbisect.Runner
module Profile = Gbisect.Profile

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* Leave the global observability state exactly as we found it. *)
let pristine f =
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Trace.set Trace.noop;
      Telemetry.set_writer None)
    f

(* --- JSON ------------------------------------------------------------------ *)

let json_tests =
  [
    case "to_string / of_string round-trip" (fun () ->
        let v =
          Json.Obj
            [
              ("name", Json.String "kl.pass");
              ("n", Json.Int (-3));
              ("x", Json.Float 1.5);
              ("ok", Json.Bool true);
              ("none", Json.Null);
              ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
            ]
        in
        check_bool "round-trip" true (Json.of_string (Json.to_string v) = v));
    case "escapes and parses tricky strings" (fun () ->
        let s = "a\"b\\c\nd\te\x01f" in
        match Json.of_string (Json.to_string (Json.String s)) with
        | Json.String s' -> Alcotest.(check string) "string" s s'
        | _ -> Alcotest.fail "not a string");
    case "member and to_float" (fun () ->
        let v = Json.of_string {|{"a": 2.5, "b": {"c": 7}}|} in
        check_bool "a" true (Option.bind (Json.member "a" v) Json.to_float = Some 2.5);
        check_bool "missing" true (Json.member "zzz" v = None));
    case "nesting is capped at 512 levels" (fun () ->
        let nested depth = String.make depth '[' ^ String.make depth ']' in
        let rec depth_of = function Json.List [ v ] -> 1 + depth_of v | _ -> 1 in
        check_int "512 levels parse" 512 (depth_of (Json.of_string (nested 512)));
        List.iter
          (fun json ->
            match Json.of_string json with
            | exception Failure msg ->
                check_bool msg true (Helpers.contains msg "nesting deeper than 512")
            | _ -> Alcotest.fail "accepted 513 levels")
          [ nested 513; String.make 512 '[' ^ "{}" ^ String.make 512 ']' ]);
    case "rejects trailing garbage" (fun () ->
        match Json.of_string "{} trailing" with
        | exception _ -> ()
        | _ -> Alcotest.fail "accepted trailing garbage");
    case "strict to_string rejects non-finite floats" (fun () ->
        List.iter
          (fun x ->
            match Json.to_string ~strict:true (Json.Obj [ ("x", Json.Float x) ]) with
            | exception Invalid_argument _ -> ()
            | s -> Alcotest.failf "strict rendered %f as %s" x s)
          [ Float.nan; Float.infinity; Float.neg_infinity ]);
    case "non-strict to_string renders non-finite floats as null" (fun () ->
        Alcotest.(check string) "nan" "[null]" (Json.to_string (Json.List [ Json.Float Float.nan ]));
        Alcotest.(check string) "finite untouched" "[1.5]"
          (Json.to_string (Json.List [ Json.Float 1.5 ])));
    case "\\u escapes decode to UTF-8, surrogate pairs to one code point" (fun () ->
        let decodes json bytes =
          match Json.of_string json with
          | Json.String s -> Alcotest.(check string) json bytes s
          | _ -> Alcotest.fail "not a string"
        in
        decodes {|"\u0041\u00e9\u20ac"|} "A\xc3\xa9\xe2\x82\xac";
        (* U+1F600 as UTF-8, not as the CESU-8 bytes of its two halves. *)
        decodes {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
        decodes {|"\udbff\uDFFF!"|} "\xf4\x8f\xbf\xbf!";
        (* Lone surrogates keep the bytes they always had. *)
        decodes {|"\ud83d"|} "\xed\xa0\xbd";
        decodes {|"\ude00\ud83d"|} "\xed\xb8\x80\xed\xa0\xbd";
        decodes {|"\ud83dA"|} "\xed\xa0\xbdA");
    case "\\u escapes take exactly four hex digits" (fun () ->
        List.iter
          (fun json ->
            match Json.of_string json with
            | exception Failure msg ->
                check_bool msg true (Helpers.contains msg "bad \\u escape")
            | _ -> Alcotest.failf "accepted %s" json)
          [ {|"\u1_23"|}; {|"\u123_"|}; {|"\u12"|}; {|"\uzzzz"|}; {|"\ud83d\ude_0"|} ]);
  ]

(* --- Metrics --------------------------------------------------------------- *)

(* A counter's value as the stats surfaces read it. *)
let count name = List.assoc name (Metrics.counters ())

let metrics_tests =
  [
    case "counters are off by default and exact when on" (fun () ->
        pristine (fun () ->
            let c = Metrics.counter "test.counter" in
            Metrics.incr c;
            check_int "disabled incr ignored" 0 (count "test.counter");
            Metrics.set_enabled true;
            Metrics.incr c;
            Metrics.add c 4;
            check_int "counts" 5 (count "test.counter");
            Metrics.reset ();
            check_int "reset" 0 (count "test.counter")));
    case "KL counters agree with KL stats on ladder 4" (fun () ->
        pristine (fun () ->
            Metrics.set_enabled true;
            Metrics.reset ();
            let g = Classic.ladder 4 in
            let rng = Rng.create ~seed:7 in
            let bisection, stats = Kl.run rng g in
            check_int "passes" stats.Kl.passes (count "kl.passes");
            check_int "swaps" stats.Kl.swaps (count "kl.swaps_committed");
            check_bool "pairs scanned" true (count "kl.pairs_scanned" > 0);
            check_bool "bucket updates" true (count "kl.gain_bucket_updates" > 0);
            check_bool "balanced" true (Gbisect.Bisection.is_balanced bisection);
            (* the run's final cut must match the bisection's *)
            check_int "final cut" stats.Kl.final_cut (Gbisect.Bisection.cut bisection)));
    case "histogram snapshot sums observations" (fun () ->
        pristine (fun () ->
            Metrics.set_enabled true;
            let h = Metrics.histogram "test.histogram" in
            List.iter (fun x -> Metrics.observe h x) [ 1.0; 2.0; 4.0 ];
            match List.assoc_opt "test.histogram" (Metrics.histograms ()) with
            | None -> Alcotest.fail "histogram missing"
            | Some s ->
                check_int "count" 3 s.Metrics.count;
                Alcotest.(check (float 1e-9)) "sum" 7.0 s.Metrics.sum));
    case "counters and histograms are exact under two-domain contention" (fun () ->
        (* Regression: counters were plain refs, so concurrent fan-outs
           lost increments. Two domains hammering the same counter and
           histogram must land every single update. *)
        pristine (fun () ->
            Metrics.set_enabled true;
            Metrics.reset ();
            let c = Metrics.counter "test.hammer" in
            let h = Metrics.histogram "test.hammer_h" in
            let n = 50_000 in
            let work () =
              for _ = 1 to n do
                Metrics.incr c;
                Metrics.observe h 1.0
              done
            in
            let other = Domain.spawn work in
            work ();
            Domain.join other;
            check_int "exact count" (2 * n) (count "test.hammer");
            match List.assoc_opt "test.hammer_h" (Metrics.histograms ()) with
            | None -> Alcotest.fail "histogram missing"
            | Some s ->
                check_int "histogram count" (2 * n) s.Metrics.count;
                Alcotest.(check (float 1e-6)) "histogram sum"
                  (float_of_int (2 * n))
                  s.Metrics.sum));
    case "ambient installs are race-free under two-domain contention" (fun () ->
        (* Companion to the mutable-global audit: every ambient
           installation point (clock source, trace sink, telemetry
           writer, --jobs) is an Atomic. One domain re-installs them in
           a tight loop while the other reads and emits through them;
           nothing may tear, crash, or deliver to a half-installed
           writer, and the last install must win. *)
        pristine (fun () ->
            let jobs0 = Pool.jobs () in
            Fun.protect
              ~finally:(fun () ->
                Pool.set_jobs jobs0;
                (* lint: allow no-wall-clock, par-wall-clock — restores the default clock source after the hammer *)
                Clock.set Sys.time)
              (fun () ->
                let n = 5_000 in
                let record =
                  {
                    Telemetry.algorithm = "hammer";
                    graph = "hammer";
                    profile = "test";
                    seed = None;
                    start = 0;
                    cut = 0;
                    seconds = 0.;
                    balanced = true;
                    trajectory = [];
                    metrics = [];
                  }
                in
                let installer () =
                  for i = 1 to n do
                    Clock.set (fun () -> float_of_int i);
                    Pool.set_jobs ((i mod 4) + 1);
                    Telemetry.set_writer (Some ignore);
                    Trace.set (Trace.of_writer ignore)
                  done
                in
                let healthy = Atomic.make true in
                let reader () =
                  for _ = 1 to n do
                    let t = Clock.now () in
                    if not (Float.is_finite t && t >= 0.) then Atomic.set healthy false;
                    if Pool.jobs () < 1 then Atomic.set healthy false;
                    Telemetry.emit record;
                    Trace.with_span Span.runner_trial (fun () -> Trace.instant Span.serve_cache_hit)
                  done
                in
                let other = Domain.spawn installer in
                reader ();
                Domain.join other;
                check_bool "reads stayed sane" true (Atomic.get healthy);
                check_bool "last jobs install wins" true
                  (let j = Pool.jobs () in j >= 1 && j <= 4);
                Alcotest.(check (float 0.)) "last clock install wins"
                  (float_of_int n) (Clock.now ());
                let seen = Atomic.make 0 in
                Telemetry.set_writer (Some (fun _ -> Atomic.incr seen));
                Telemetry.emit record;
                check_int "final writer receives exactly one record" 1
                  (Atomic.get seen))));
    case "snapshot_json parses back" (fun () ->
        pristine (fun () ->
            Metrics.set_enabled true;
            Metrics.incr (Metrics.counter "test.one");
            let v = Json.of_string (Json.to_string (Metrics.snapshot_json ())) in
            check_bool "has counters" true (Json.member "counters" v <> None);
            check_bool "has histograms" true (Json.member "histograms" v <> None)));
    case "dumps list instruments sorted by name, not registration order" (fun () ->
        pristine (fun () ->
            Metrics.set_enabled true;
            (* Register deliberately out of order. *)
            List.iter
              (fun name -> Metrics.incr (Metrics.counter name))
              [ "test.zz"; "test.aa"; "test.mm" ];
            List.iter
              (fun name -> Metrics.observe (Metrics.histogram name) 1.0)
              [ "test.h_z"; "test.h_a" ];
            let sorted names = List.sort String.compare names = names in
            check_bool "counters sorted" true
              (sorted (List.map fst (Metrics.counters ())));
            check_bool "histograms sorted" true
              (sorted (List.map fst (Metrics.histograms ())));
            (match Json.of_string (Json.to_string (Metrics.snapshot_json ())) with
            | Json.Obj kvs ->
                List.iter
                  (fun section ->
                    match List.assoc_opt section kvs with
                    | Some (Json.Obj entries) ->
                        check_bool (section ^ " json sorted") true
                          (sorted (List.map fst entries))
                    | _ -> Alcotest.failf "%s missing from snapshot" section)
                  [ "counters"; "histograms" ]
            | _ -> Alcotest.fail "snapshot_json is not an object")));
    case "log2 bucket boundaries: powers of two, zero, huge" (fun () ->
        pristine (fun () ->
            Metrics.set_enabled true;
            (* An observation v lands in the first bucket with
               v < upper_bound: 0 and everything below 1 in the bucket
               capped at 1.0, 2^k exactly in the bucket capped at
               2^(k+1), and a value beyond the last finite bound in the
               +inf overflow bucket. *)
            let bucket_of v =
              let h = Metrics.histogram "test.buckets" in
              Metrics.observe h v;
              let s =
                match List.assoc_opt "test.buckets" (Metrics.histograms ()) with
                | Some s -> s
                | None -> Alcotest.fail "histogram missing"
              in
              Metrics.reset ();
              match s.Metrics.buckets with
              | [ (ub, 1) ] -> ub
              | _ -> Alcotest.failf "expected one occupied bucket for %g" v
            in
            Alcotest.(check (float 0.)) "0 -> le 1" 1.0 (bucket_of 0.0);
            Alcotest.(check (float 0.)) "0.25 -> le 1" 1.0 (bucket_of 0.25);
            for k = 0 to 12 do
              Alcotest.(check (float 0.))
                (Printf.sprintf "2^%d -> le 2^%d" k (k + 1))
                (Float.ldexp 1.0 (k + 1))
                (bucket_of (Float.ldexp 1.0 k));
              (* Just under 2^k stays one bucket lower (for k >= 1). *)
              if k >= 1 then
                Alcotest.(check (float 0.))
                  (Printf.sprintf "under 2^%d -> le 2^%d" k k)
                  (Float.ldexp 1.0 k)
                  (bucket_of (Float.pred (Float.ldexp 1.0 k)))
            done;
            Alcotest.(check (float 0.)) "max_int overflows to +inf" Float.infinity
              (bucket_of (float_of_int max_int));
            check_bool "negative observations land in the first bucket" true
              (bucket_of (-3.0) = 1.0)));
    case "summary stats are exact on the boundary corpus" (fun () ->
        pristine (fun () ->
            Metrics.set_enabled true;
            let h = Metrics.histogram "test.stats" in
            let corpus = [ 0.0; 1.0; 2.0; 1024.0; float_of_int max_int ] in
            List.iter (Metrics.observe h) corpus;
            match List.assoc_opt "test.stats" (Metrics.histograms ()) with
            | None -> Alcotest.fail "histogram missing"
            | Some s ->
                check_int "count" (List.length corpus) s.Metrics.count;
                Alcotest.(check (float 0.)) "sum"
                  (List.fold_left ( +. ) 0. corpus)
                  s.Metrics.sum;
                Alcotest.(check (float 0.)) "min" 0.0 s.Metrics.min_value;
                Alcotest.(check (float 0.)) "max" (float_of_int max_int)
                  s.Metrics.max_value;
                check_int "every observation is in a bucket"
                  (List.length corpus)
                  (List.fold_left (fun acc (_, c) -> acc + c) 0 s.Metrics.buckets)));
  ]

(* --- Proc ------------------------------------------------------------------ *)

let proc_tests =
  [
    case "allocated_words counts every word of Array.make 100 0" (fun () ->
        let w0 = Proc.allocated_words () in
        ignore (Sys.opaque_identity (Array.make 100 0));
        let w1 = Proc.allocated_words () in
        check_bool "at least 101 words" true (w1 -. w0 >= 101.));
    case "peak rss is readable on linux" (fun () ->
        match Proc.peak_rss_bytes () with
        | Some b -> check_bool "positive" true (b > 0)
        | None -> () (* not linux: procfs absent is a legal answer *));
    case "artifact frames schema_version, suite, host, then the fields" (fun () ->
        match Proc.artifact ~suite:"demo" [ ("x", Json.Int 1); ("a", Json.Int 2) ] with
        | Json.Obj kvs -> (
            Alcotest.(check (list string))
              "key order"
              [ "schema_version"; "suite"; "host"; "x"; "a" ]
              (List.map fst kvs);
            check_bool "schema_version" true
              (List.assoc "schema_version" kvs = Json.Int Proc.schema_version);
            check_bool "suite" true (List.assoc "suite" kvs = Json.String "demo");
            match Json.member "recommended_domains" (List.assoc "host" kvs) with
            | Some (Json.Int d) ->
                check_int "recommended_domains" (Domain.recommended_domain_count ()) d
            | _ -> Alcotest.fail "host.recommended_domains missing")
        | _ -> Alcotest.fail "artifact is not an object");
    case "parallel rows claim a speedup only on a multi-domain host" (fun () ->
        let row domains = Proc.parallel_row ~domains ~id:"t" ~sequential:3. ~parallel:2. in
        Alcotest.(check (list string))
          "one domain" [ "id"; "sequential_s"; "parallel_s" ] (List.map fst (row 1));
        Alcotest.(check (list string))
          "two domains"
          [ "id"; "sequential_s"; "parallel_s"; "speedup" ]
          (List.map fst (row 2));
        check_bool "speedup is sequential / parallel" true
          (List.assoc "speedup" (row 2) = Json.Float 1.5));
  ]

(* --- Trace ----------------------------------------------------------------- *)

let trace_lines f =
  let buf = Buffer.create 256 in
  pristine (fun () ->
      Trace.set (Trace.of_writer (Buffer.add_string buf));
      f ();
      Trace.set Trace.noop);
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> String.trim l <> "")

let alloc_words event =
  Option.bind (Option.bind (Json.member "args" event) (Json.member "alloc_words")) Json.to_float

(* The alloc_words of the one event [Trace.with_span _ f] emits. *)
let span_words f =
  match trace_lines (fun () -> Trace.with_span Span.experiment f) with
  | [ line ] -> (
      match alloc_words (Json.of_string line) with
      | Some w -> w
      | None -> Alcotest.fail "no alloc_words")
  | lines -> Alcotest.failf "expected one event, got %d" (List.length lines)

let trace_tests =
  [
    case "spans emit valid trace_event JSON lines" (fun () ->
        let lines =
          trace_lines (fun () ->
              Trace.with_span Span.experiment
                ~args:[ ("k", Json.Int 1) ]
                (fun () -> Trace.instant Span.serve_cache_hit))
        in
        check_int "two events" 2 (List.length lines);
        List.iter
          (fun line ->
            let v = Json.of_string line in
            List.iter
              (fun key -> check_bool (key ^ " present") true (Json.member key v <> None))
              [ "name"; "ph"; "ts"; "pid"; "tid" ])
          lines;
        (* the span line is a complete event with a duration *)
        let span =
          List.find
            (fun l ->
              Json.member "name" (Json.of_string l)
              = Some (Json.String (Span.name Span.experiment)))
            lines
        in
        check_bool "ph X" true (Json.member "ph" (Json.of_string span) = Some (Json.String "X"));
        check_bool "dur" true (Json.member "dur" (Json.of_string span) <> None));
    case "kl refine emits kl.pass spans" (fun () ->
        let lines =
          trace_lines (fun () ->
              let g = Classic.ladder 16 in
              let rng = Rng.create ~seed:3 in
              ignore (Kl.run rng g))
        in
        let names =
          List.filter_map (fun l -> Json.member "name" (Json.of_string l)) lines
        in
        check_bool "has kl.pass span" true
          (List.mem (Json.String (Span.name Span.kl_pass)) names));
    case "a span's alloc_words covers Array.make 10_000 0." (fun () ->
        let words = span_words (fun () -> ignore (Sys.opaque_identity (Array.make 10_000 0.))) in
        check_bool "at least 10_001 words" true (words >= 10_001.));
    case "an empty span reports fewer than 100 alloc_words" (fun () ->
        check_bool "under 100 words" true (span_words ignore < 100.));
    case "every complete event carries alloc_words and no instant does" (fun () ->
        let lines =
          trace_lines (fun () ->
              Trace.instant Span.serve_cache_hit;
              ignore
                ((Gbisect.Algo.find `Mlfm).run (Rng.create ~seed:2)
                   (Classic.grid ~rows:16 ~cols:16)))
        in
        let events = List.map Json.of_string lines in
        let ph e = Json.member "ph" e in
        check_bool "has spans" true (List.exists (fun e -> ph e = Some (Json.String "X")) events);
        List.iter
          (fun e ->
            match ph e with
            | Some (Json.String "X") ->
                check_bool "X carries alloc_words" true (alloc_words e <> None)
            | _ -> check_bool "instant carries none" true (alloc_words e = None))
          events);
    case "noop sink writes nothing and is not enabled" (fun () ->
        pristine (fun () ->
            Trace.set Trace.noop;
            check_bool "disabled" false (Trace.enabled ());
            (* must be harmless without a sink *)
            Trace.with_span Span.experiment (fun () -> ())));
  ]

(* --- Determinism: observability must never change results ------------------ *)

let determinism_tests =
  [
    case "obs on vs off: identical cut and RNG stream" (fun () ->
        let run () =
          let g = Classic.ladder 32 in
          let rng = Rng.create ~seed:11 in
          let b, _ = Kl.run rng g in
          (* drawing after the run exposes any extra RNG consumption *)
          (Gbisect.Bisection.cut b, Rng.int rng 1_000_000)
        in
        let off = run () in
        let on =
          pristine (fun () ->
              Metrics.set_enabled true;
              Trace.set (Trace.of_writer (fun _ -> ()));
              let result, _samples = Telemetry.with_collector run in
              result)
        in
        check_bool "bit-identical" true (off = on));
    case "sa obs on vs off: identical result" (fun () ->
        let run () =
          let g = Classic.ladder 8 in
          let rng = Rng.create ~seed:5 in
          let b, _ = Gbisect.Sa_bisect.run rng g in
          (Gbisect.Bisection.cut b, Rng.int rng 1_000_000)
        in
        let off = run () in
        let on =
          pristine (fun () ->
              Metrics.set_enabled true;
              fst (Telemetry.with_collector run))
        in
        check_bool "bit-identical" true (off = on));
  ]

(* --- Telemetry ------------------------------------------------------------- *)

let telemetry_tests =
  [
    case "record to_json carries all fields" (fun () ->
        let r =
          {
            Telemetry.algorithm = "KL";
            graph = "ladder-4";
            profile = "smoke";
            seed = Some 42;
            start = 1;
            cut = 2;
            seconds = 0.5;
            balanced = true;
            trajectory = [ (Span.name Span.kl_pass, 10.); (Span.name Span.kl_pass, 2.) ];
            metrics = [ ("passes", Json.Int 2) ];
          }
        in
        let v = Json.of_string (Json.to_string (Telemetry.to_json r)) in
        check_bool "algorithm" true
          (Json.member "algorithm" v = Some (Json.String "KL"));
        check_bool "seed" true (Json.member "seed" v = Some (Json.Int 42));
        match Json.member "trajectory" v with
        | Some (Json.List [ _; _ ]) -> ()
        | _ -> Alcotest.fail "trajectory shape");
    case "of_json inverts to_json" (fun () ->
        let r =
          {
            Telemetry.algorithm = "CKL";
            graph = "gbreg/b=8/rep1";
            profile = "quick";
            seed = Some 7;
            start = 0;
            cut = 11;
            seconds = 1.25;
            balanced = false;
            trajectory =
              [ (Span.name Span.kl_pass, 20.); (Span.name Span.compaction_level, 3.) ];
            metrics = [ ("passes", Json.Int 4); ("plateau", Json.Bool false) ];
          }
        in
        check_bool "round trip" true (Telemetry.of_json (Telemetry.to_json r) = Some r);
        (* survives a serialise/parse cycle too (what the store does) *)
        check_bool "via string" true
          (Telemetry.of_json (Json.of_string (Json.to_string (Telemetry.to_json r)))
          = Some r);
        let no_seed = { r with Telemetry.seed = None } in
        check_bool "no seed" true
          (Telemetry.of_json (Telemetry.to_json no_seed) = Some no_seed));
    case "of_json is None on shape mismatches" (fun () ->
        List.iter
          (fun s ->
            check_bool s true (Telemetry.of_json (Json.of_string s) = None))
          [
            "{}";
            "[1,2]";
            {|{"algorithm": 3}|};
            {|{"algorithm":"KL","graph":"g","profile":"p","start":0,"cut":"x","seconds":0,"balanced":true,"trajectory":[],"metrics":{}}|};
          ]);
    case "with_tap sees every emit, writer or not" (fun () ->
        pristine (fun () ->
            let r =
              {
                Telemetry.algorithm = "KL";
                graph = "g";
                profile = "smoke";
                seed = None;
                start = 0;
                cut = 1;
                seconds = 0.;
                balanced = true;
                trajectory = [];
                metrics = [];
              }
            in
            let tapped = ref [] and written = ref [] in
            (* no writer installed: the tap alone receives the record *)
            Telemetry.with_tap
              (fun r -> tapped := r :: !tapped)
              (fun () -> Telemetry.emit r);
            check_int "tap only" 1 (List.length !tapped);
            (* writer and tap both see it *)
            Telemetry.set_writer (Some (fun r -> written := r :: !written));
            Telemetry.with_tap
              (fun r -> tapped := r :: !tapped)
              (fun () -> Telemetry.emit { r with Telemetry.cut = 2 });
            check_int "tap again" 2 (List.length !tapped);
            check_int "writer too" 1 (List.length !written);
            (* tap is scoped: an emit outside reaches only the writer *)
            Telemetry.emit { r with Telemetry.cut = 3 };
            check_int "tap restored" 2 (List.length !tapped);
            check_int "writer still on" 2 (List.length !written)));
    case "with_context scopes and inherits labels" (fun () ->
        Telemetry.with_context ~graph:"g1" ~seed:9 (fun () ->
            check_bool "graph" true (Telemetry.context_graph () = Some "g1");
            Telemetry.with_context ~seed:10 (fun () ->
                check_bool "inherited graph" true (Telemetry.context_graph () = Some "g1");
                check_bool "inner seed" true (Telemetry.context_seed () = Some 10));
            check_bool "outer seed" true (Telemetry.context_seed () = Some 9));
        check_bool "restored" true (Telemetry.context_graph () = None));
    case "runner emits one record per start with a trajectory" (fun () ->
        pristine (fun () ->
            let records = ref [] in
            Telemetry.set_writer (Some (fun r -> records := r :: !records));
            let profile = Profile.smoke in
            let g = Classic.ladder 16 in
            let rng = Rng.create ~seed:1 in
            let run =
              Telemetry.with_context ~graph:"ladder-16" (fun () ->
                  Runner.best_of_starts profile rng `Kl g)
            in
            let records = List.rev !records in
            check_int "one per start" (max 1 profile.Profile.starts)
              (List.length records);
            check_bool "balanced" true run.Runner.balanced;
            List.iteri
              (fun i r ->
                check_int "start index" i r.Telemetry.start;
                Alcotest.(check string) "graph label" "ladder-16" r.Telemetry.graph;
                check_bool "has kl.pass samples" true
                  (List.exists
                     (fun (k, _) -> k = Span.name Span.kl_pass)
                     r.Telemetry.trajectory))
              records;
            (* the best-of-starts cut is one of the per-start cuts *)
            check_bool "best cut among records" true
              (List.exists (fun r -> r.Telemetry.cut = run.Runner.cut) records)));
  ]

let () =
  Alcotest.run "obs"
    [
      ("json", json_tests);
      ("metrics", metrics_tests);
      ("proc", proc_tests);
      ("trace", trace_tests);
      ("determinism", determinism_tests);
      ("telemetry", telemetry_tests);
    ]
