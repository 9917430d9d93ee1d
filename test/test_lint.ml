(* Tests for Gb_lint: one positive and one negative case per rule, the
   lexical corners the parse tree must keep out of the rules, pragma
   and allowlist semantics, the [--json] finding codec, and — the
   check that keeps the whole PR honest — that the repo's own sources
   lint clean. *)

module Rng = Gb_prng.Rng
module Json = Gb_obs.Json
module Rules = Gb_lint.Rules
module Lint = Gb_lint.Lint
module Resolve = Gb_lint.Resolve
module Program = Gb_lint.Program
module Graph_rules = Gb_lint.Graph_rules

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* Findings for [src] pretended to live at [file] (default: library
   code, where every rule applies). *)
let findings ?(file = "lib/fixture/code.ml") src =
  Rules.check_source ~file src

let rules_of fs = List.map (fun f -> f.Rules.rule) fs

let check_rules label expected fs =
  Alcotest.(check (list string))
    label
    (List.sort String.compare expected)
    (List.sort String.compare (rules_of fs))

(* --- Rules: one positive and the telling negatives per rule ---------------- *)

let rule_tests =
  [
    case "no-ambient-random fires on Random.*" (fun () ->
        check_rules "positive" [ "no-ambient-random" ]
          (findings "let x = Random.int 5");
        check_rules "type in an interface" [ "no-ambient-random" ]
          (findings ~file:"lib/x/thing.mli" "val f : Random.State.t -> int");
        check_rules "other module" [] (findings "let x = Rng.int rng 5"));
    case "no-wall-clock fires on Sys.time and Unix.gettimeofday" (fun () ->
        check_rules "sys" [ "no-wall-clock" ] (findings "let t = Sys.time ()");
        check_rules "unix" [ "no-wall-clock" ]
          (findings "let t = Unix.gettimeofday ()");
        check_rules "clock is fine" [] (findings "let t = Clock.now ()"));
    case "no-marshal fires on Marshal" (fun () ->
        check_rules "positive" [ "no-marshal" ]
          (findings "let s = Marshal.to_string x []"));
    case "no-hashtbl-hash fires on Hashtbl.hash" (fun () ->
        check_rules "positive" [ "no-hashtbl-hash" ]
          (findings "let h = Hashtbl.hash x");
        check_rules "find is fine" [] (findings "let v = Hashtbl.find t k"));
    case "no-poly-compare: bare and Stdlib.compare, not typed ones" (fun () ->
        check_rules "bare" [ "no-poly-compare" ]
          (findings "let xs = List.sort compare xs");
        check_rules "stdlib" [ "no-poly-compare" ]
          (findings "let xs = List.sort Stdlib.compare xs");
        check_rules "typed" []
          (findings "let xs = List.sort Int.compare xs");
        check_rules "labelled arg" []
          (findings "let x = best ~compare:(fun a b -> Int.compare a b) xs");
        check_rules "definition" [] (findings "let compare a b = Int.compare a b"));
    case "no-float-format: lib-only, %% escapes, hex floats exempt" (fun () ->
        check_rules "positive" [ "no-float-format" ]
          (findings {|let s = Printf.sprintf "%.2f" x|});
        check_rules "ints fine" [] (findings {|let s = Printf.sprintf "%d" x|});
        check_rules "escaped percent" []
          (findings {|let s = Printf.sprintf "100%%fun" ()|});
        check_rules "hex float is exact" []
          (findings {|let s = Printf.sprintf "%h" x|});
        check_rules "not in executables" []
          (findings ~file:"bench/main.ml" {|let s = Printf.sprintf "%.2f" x|}));
    case "no-stdout-in-lib: lib-only" (fun () ->
        check_rules "positive" [ "no-stdout-in-lib" ]
          (findings {|let () = print_string "hi"|});
        check_rules "stderr fine" []
          (findings {|let () = Printf.eprintf "hi"|});
        check_rules "executables may print" []
          (findings ~file:"bin/cli.ml" {|let () = print_string "hi"|}));
    case "no-exit-in-lib: lib-only" (fun () ->
        check_rules "positive" [ "no-exit-in-lib" ] (findings "let () = exit 1");
        check_rules "executables may exit" []
          (findings ~file:"bin/cli.ml" "let () = exit 1"));
    case "no-naked-mutable-global: top-level refs and tables" (fun () ->
        check_rules "ref" [ "no-naked-mutable-global" ] (findings "let r = ref 0");
        check_rules "hashtbl" [ "no-naked-mutable-global" ]
          (findings "let t = Hashtbl.create 16");
        check_rules "array" [ "no-naked-mutable-global" ]
          (findings "let memo = Array.make 256 0.");
        check_rules "bytes" [ "no-naked-mutable-global" ]
          (findings "let buf = Bytes.create 65536");
        check_rules "array per call fine" []
          (findings "let scratch n = Array.make n 0");
        check_rules "atomic fine" [] (findings "let r = Atomic.make 0");
        check_rules "local ref fine" []
          (findings "let f () =\n  let r = ref 0 in\n  !r");
        check_rules "ref in type annotation fine" []
          (findings "let k : int ref option Key.t = Key.make (fun () -> None)");
        check_rules "ref under fun fine" []
          (findings "let make = fun () -> ref 0");
        check_rules "ref beside a fun" [ "no-naked-mutable-global" ]
          (findings "let pair = ((fun () -> 0), ref 0)");
        check_rules "table after a fun" [ "no-naked-mutable-global" ]
          (findings "let tbl = (ignore (fun x -> x); Hashtbl.create 16)"));
    case "rules never fire inside comments or strings" (fun () ->
        check_rules "comment" [] (findings "(* let x = Random.int 5 *) let a = 1");
        check_rules "string" [] (findings {|let doc = "Random.int, Sys.time"|});
        check_rules "nested comments" []
          (findings "(* outer (* Random.int *) still Random.int *) let x = 1");
        (* a close-comment inside a commented string does not end the
           comment, per the real lexer *)
        check_rules "string inside a comment" []
          (findings "(* tricky \" *) Random.int \" end *) let y = 2");
        check_rules "escaped quote in a string" []
          (findings {|let s = "a\"b *) Random.int"|});
        check_rules "quoted string" []
          (findings "let s = {id|raw \\ \" *) Random.int|id}");
        check_rules "doc comment" [] (findings "(** prints %.2f via Random.int *)\nlet x = 1");
        (* a naive scanner opens a string at the quote and swallows the
           rest of the file *)
        check_rules "char literal" [ "no-wall-clock" ]
          (findings "let q = '\"'\nlet t = Sys.time ()"));
    case "mli interfaces are not scanned for impl-only rules" (fun () ->
        (* value specs mention ref types freely *)
        check_rules "mli ref" []
          (findings ~file:"lib/x/thing.mli" "val cell : int ref"));
    case "a file that does not parse is one parse finding" (fun () ->
        List.iter
          (fun (label, src, line) ->
            match findings src with
            | [ f ] ->
                Alcotest.(check string) (label ^ ": rule") "parse" f.Rules.rule;
                check_int (label ^ ": line") line f.Rules.line;
                check_bool (label ^ ": error") true (f.Rules.severity = Rules.Error)
            | fs -> Alcotest.failf "%s: expected 1 finding, got %d" label (List.length fs))
          [
            ("comment", "let a = Random.int 5\n(* never closed", 2);
            ("string", "let a = 1\nlet s = \"never closed", 2);
            ("quoted string", "let s = {|never closed", 1);
            ("syntax", "let a = Random.int 5\nlet = 2\n", 2);
          ]);
  ]

(* --- Pragmas and the allowlist --------------------------------------------- *)

let pragma_tests =
  [
    case "a pragma with a reason suppresses the next line" (fun () ->
        check_rules "suppressed" []
          (findings
             "(* lint: allow no-ambient-random — fixture exercises the pragma *)\n\
              let x = Random.int 5"));
    case "a pragma on the same line suppresses too" (fun () ->
        check_rules "same line" []
          (findings
             "let x = Random.int 5 (* lint: allow no-ambient-random — inline *)"));
    case "the reason is mandatory" (fun () ->
        check_rules "malformed + still fires" [ "no-ambient-random"; "pragma" ]
          (findings "(* lint: allow no-ambient-random *)\nlet x = Random.int 5"));
    case "unknown rules are reported" (fun () ->
        check_rules "unknown" [ "pragma" ]
          (findings "(* lint: allow no-such-rule — why not *)\nlet x = 1"));
    case "an unused pragma is reported" (fun () ->
        check_rules "unused" [ "pragma" ]
          (findings "(* lint: allow no-ambient-random — nothing here *)\nlet x = 1");
        match findings "(* lint: allow no-ambient-random — nothing *)\nlet x = 1" with
        | [ f ] -> check_bool "warning" true (f.Rules.severity = Rules.Warning)
        | _ -> Alcotest.fail "expected exactly the unused-pragma finding");
    case "a pragma only suppresses its own rule" (fun () ->
        (* the mismatched pragma also shows up as unused *)
        check_rules "wrong rule named" [ "no-wall-clock"; "pragma" ]
          (findings
             "(* lint: allow no-ambient-random — wrong rule *)\nlet t = Sys.time ()"));
    case "allowlist: the owning module is exempt" (fun () ->
        check_rules "prng may use Random" []
          (findings ~file:"lib/prng/rng.ml" "let x = Random.int 5");
        check_rules "clock may read the wall clock" []
          (findings ~file:"lib/obs/clock.ml" "let source = Atomic.make Sys.time");
        check_rules "others may not" [ "no-ambient-random" ]
          (findings ~file:"lib/kl/kl.ml" "let x = Random.int 5"));
    case "every allowlist rule name is real" (fun () ->
        List.iter
          (fun (_, rules) -> List.iter (fun r -> check_bool r true (Rules.known_rule r)) rules)
          Rules.allowlist);
  ]

(* --- Extractor: adversarial shapes ------------------------------------------ *)

let extract src = Resolve.extract (Parse.implementation (Lexing.from_string src))
let def_names x = List.map (fun d -> d.Resolve.d_name) x.Resolve.x_defs

let extractor_tests =
  [
    case "functor bodies contribute qualified defs" (fun () ->
        let x =
          extract
            "module Make (X : S) = struct\n\
            \  let run g = X.go g\n\
             end\n"
        in
        check_bool "Make.run extracted" true (List.mem "Make.run" (def_names x)));
    case "first-class module arguments do not derail the head" (fun () ->
        let x = extract "let solve (module M : Solver) g = M.run g\n" in
        check_bool "solve extracted" true (List.mem "solve" (def_names x)));
    case "let-open and local-open targets are collected file-wide" (fun () ->
        let x =
          extract
            "let a g = let open Gb_kl.Kl in one_pass g\n\
             let b g = Gb_anneal.Sa.(plateau g)\n"
        in
        check_bool "let open" true
          (List.mem [ "Gb_kl"; "Kl" ] x.Resolve.x_opens);
        check_bool "local open" true
          (List.mem [ "Gb_anneal"; "Sa" ] x.Resolve.x_opens));
    case "shadowed module aliases keep the earlier binding first" (fun () ->
        let x = extract "module K = Gb_kl.Kl\nmodule K = Gb_anneal.Sa\nlet f g = K.go g\n" in
        (match List.assoc_opt "K" x.Resolve.x_aliases with
        | Some [ "Gb_kl"; "Kl" ] -> ()
        | Some other ->
            Alcotest.failf "first binding should win, got %s"
              (String.concat "." other)
        | None -> Alcotest.fail "alias K not extracted");
        check_int "both recorded" 2
          (List.length
             (List.filter (fun (n, _) -> n = "K") x.Resolve.x_aliases)));
    case "operator definitions are named and recognized" (fun () ->
        let x = extract "let ( <+> ) a b = a + b\n" in
        (match def_names x with
        | [ name ] ->
            check_bool "operator name" true (Resolve.is_operator_name name)
        | ds -> Alcotest.failf "expected 1 def, got %d" (List.length ds));
        check_bool "plain name is not an operator" true
          (not (Resolve.is_operator_name "run")));
    case "rng parameters and mutable module state are marked" (fun () ->
        let x =
          extract
            "let cell = ref 0\n\
             let memo = Array.make 256 0.\n\
             let kernel rng g = step rng g\n\
             let local () = let c = ref 0 in !c\n\
             let pair = ((fun () -> 0), ref 0)\n\
             let tbl = (ignore (fun x -> x); Hashtbl.create 16)\n"
        in
        let find n = List.find (fun d -> d.Resolve.d_name = n) x.Resolve.x_defs in
        check_bool "cell is mutable state" true (find "cell").Resolve.d_mutable_state;
        check_bool "memo is mutable state" true (find "memo").Resolve.d_mutable_state;
        check_bool "a ref beside a fun is mutable state" true
          (find "pair").Resolve.d_mutable_state;
        check_bool "a table after a fun is mutable state" true
          (find "tbl").Resolve.d_mutable_state;
        check_bool "kernel takes a stream" true (find "kernel").Resolve.d_rng_param;
        check_bool "a local ref is not module state" true
          (not (find "local").Resolve.d_mutable_state));
    case "is_pool_path recognizes fan-out entry points" (fun () ->
        check_bool "qualified" true
          (Program.is_pool_path [ "Gb_par"; "Pool"; "map" ]);
        check_bool "short" true (Program.is_pool_path [ "Pool"; "map_list" ]);
        check_bool "not an entry" true
          (not (Program.is_pool_path [ "Pool"; "no_such" ]));
        check_bool "not the pool" true
          (not (Program.is_pool_path [ "Stack"; "map" ])));
    case "binding operators and let () are named by their pattern" (fun () ->
        let x =
          extract
            "let ( let* ) r f = match r with Ok v -> f v | e -> e\n\
             let () = print_newline ()\n"
        in
        Alcotest.(check (list string)) "defs" [ "( let* )"; "<init:2>" ] (def_names x));
  ]

(* --- Interprocedural rules on constructed programs -------------------------- *)

(* A three-module library where a Pool.map thunk reaches mutable module
   state two calls away — the same shape CI's fault-injection fixture
   uses. [~par:false] swaps the fan-out for List.map; [state] and [mid]
   swap in a call shape the resolver must follow. *)
let race_fixture ?(par = true) ?(state = "let cell = ref 0\nlet touch () = incr cell\n")
    ?(mid = "let note () = Fix_state.touch ()\n") () =
  [
    ("fix/dune", "(library\n (name fix))\n");
    ("fix/fix_state.ml", state);
    ("fix/fix_mid.ml", mid);
    ( "fix/fix_par.ml",
      Printf.sprintf "let run xs = %s (fun _ -> Fix_mid.note ()) xs\n"
        (if par then "Gb_par.Pool.map" else "List.map") );
  ]

(* The call graph of [(path, content)] fixtures, dune files included. *)
let program sources =
  let dunes, code = List.partition (fun (p, _) -> Filename.basename p = "dune") sources in
  Program.create ~dunes (List.map (fun (file, src) -> Rules.scan_source ~file src) code)

let graph_findings sources = Graph_rules.check (program sources)

let check_race label sources =
  match List.filter (fun f -> f.Rules.rule = "par-unsafe-state") (graph_findings sources) with
  | [ f ] -> check_bool (label ^ ": chain has >= 2 hops") true (List.length f.Rules.why >= 2)
  | fs -> Alcotest.failf "%s: expected 1 par-unsafe-state, got %d" label (List.length fs)

(* A library export [used] that an executable calls through [Fix_mid],
   and [test_only] that only a tests stanza calls. [~exe:false] leaves
   the executable out of scope. *)
let liveness_fixture ~exe =
  [
    ("lib/dune", "(library\n (name fix))\n");
    ("lib/fix_api.ml", "let used x = x + 1\nlet test_only x = x - 1\n");
    ("lib/fix_api.mli", "val used : int -> int\nval test_only : int -> int\n");
    ("lib/fix_mid.ml", "let note x = Fix_api.used x\n");
    ("lib/fix_mid.mli", "val note : int -> int\n");
    ("test/dune", "(tests\n (names t)\n (libraries fix))\n");
    ("test/t.ml", "let () = ignore (Fix.Fix_api.test_only (Fix.Fix_mid.note 1))\n");
  ]
  @
  if exe then
    [
      ("bin/dune", "(executable\n (name main)\n (libraries fix))\n");
      ("bin/main.ml", "let () = print_int (Fix.Fix_mid.note 1)\n");
    ]
  else []

(* A library whose interface [mli] and implementation [ml] are
   exercised by a tests stanza running [test], beside an executable
   that calls none of it. *)
let submodule_fixture ~mli ~ml ~test =
  [
    ("lib/dune", "(library\n (name fix))\n");
    ("lib/fix_api.ml", ml);
    ("lib/fix_api.mli", mli);
    ("test/dune", "(tests\n (names t)\n (libraries fix))\n");
    ("test/t.ml", test);
    ("bin/dune", "(executable\n (name main)\n (libraries fix))\n");
    ("bin/main.ml", "let () = print_int 1\n");
  ]

let program_rule_tests =
  [
    case "par-unsafe-state: mutable state reached through two modules" (fun () ->
        match
          List.filter
            (fun f -> f.Rules.rule = "par-unsafe-state")
            (graph_findings (race_fixture ()))
        with
        | [ f ] ->
            check_bool "at the defining file" true
              (Helpers.contains f.Rules.file "fix_state.ml");
            check_bool "chain has >= 2 hops" true (List.length f.Rules.why >= 2);
            check_bool "chain starts at the fan-out" true
              (match f.Rules.why with
              | root :: _ -> Helpers.contains root "Fix_par"
              | [] -> false)
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "par-unsafe-state: silent without a parallel region" (fun () ->
        check_bool "no finding" true
          (List.for_all
             (fun f -> f.Rules.rule <> "par-unsafe-state")
             (graph_findings (race_fixture ~par:false ()))));
    case "par-ambient-rng: Random inside a worker, at the draw line" (fun () ->
        let sources =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ( "fix/fix_par.ml",
              "let helper x =\n\
              \  Random.int x\n\
               let run xs = Gb_par.Pool.map helper xs\n" );
          ]
        in
        match
          List.filter
            (fun f -> f.Rules.rule = "par-ambient-rng")
            (graph_findings sources)
        with
        | [ f ] -> check_int "line of the draw" 2 f.Rules.line
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "par-wall-clock: Sys.time inside a worker; explicit streams fine"
      (fun () ->
        let sources clock =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ( "fix/fix_par.ml",
              Printf.sprintf "let work _ = %s\nlet run xs = Gb_par.Pool.map work xs\n"
                (if clock then "Sys.time ()" else "Gb_obs.Clock.now ()") );
          ]
        in
        check_rules "clock read flagged" [ "par-wall-clock" ]
          (List.filter
             (fun f -> f.Rules.rule = "par-wall-clock")
             (graph_findings (sources true)));
        check_rules "routed clock fine" []
          (List.filter
             (fun f -> f.Rules.rule = "par-wall-clock")
             (graph_findings (sources false))));
    case "rng-stream-discipline: a kernel must not open a second stream"
      (fun () ->
        let sources body =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ("fix/fix_kernel.ml", Printf.sprintf "let jitter rng n = %s\n" body);
          ]
        in
        check_rules "fresh seed flagged" [ "rng-stream-discipline" ]
          (graph_findings (sources "Rng.int (Rng.create ~seed:n) 3"));
        check_rules "derived substream fine" []
          (graph_findings (sources "Rng.int (Rng.substream rng n) 3")));
    case "dead-export: unreferenced interface exports, used ones spared"
      (fun () ->
        let sources =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ("fix/fix_api.ml", "let used x = x + 1\nlet unused x = x - 1\n");
            ("fix/fix_api.mli", "val used : int -> int\nval unused : int -> int\n");
            ("fix/fix_caller.ml", "let go x = Fix_api.used x\n");
          ]
        in
        match graph_findings sources with
        | [ f ] ->
            Alcotest.(check string) "rule" "dead-export" f.Rules.rule;
            check_bool "names the dead export" true
              (Helpers.contains f.Rules.message "`unused`")
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "call graph: a let[@inline] binding keeps its name" (fun () ->
        check_race "attribute"
          (race_fixture ~state:"let cell = ref 0\nlet[@inline] touch () = incr cell\n" ()));
    case "call graph: calls through a let-module alias resolve" (fun () ->
        (* a same-named alias in an earlier definition must not capture [P] *)
        check_race "local alias"
          (("fix/fix_other.ml", "let touch () = ()\n")
          :: race_fixture
               ~mid:
                 "let quiet () =\n\
                 \  let module P = Fix_other in\n\
                 \  P.touch ()\n\n\
                  let note () =\n\
                 \  let module P = Fix_state in\n\
                 \  P.touch ()\n"
               ()));
    case "call graph: bare calls inside a submodule resolve" (fun () ->
        check_race "submodule"
          (race_fixture ~state:"let cell = ref 0\n"
             ~mid:
               "module S = struct\n\
               \  let touch () = incr Fix_state.cell\n\
               \  let go () = touch ()\n\
                end\n\n\
                let note () = S.go ()\n"
             ()));
    case "call graph: punned labels and optional defaults are uses" (fun () ->
        check_race "punned label"
          (race_fixture ~state:"let cell = ref 0\n"
             ~mid:
               "let cell = Fix_state.cell\n\
                let bump ~cell:c = incr c\n\
                let note () = bump ~cell\n"
             ());
        check_race "optional default"
          (race_fixture ~state:"let cell = ref 0\n"
             ~mid:"let bump ?(c = Fix_state.cell) () = incr c\nlet note () = bump ()\n"
             ()));
    case "dead-export: an export only a tests stanza calls is dead" (fun () ->
        match graph_findings (liveness_fixture ~exe:true) with
        | [ f ] ->
            Alcotest.(check string) "rule" "dead-export" f.Rules.rule;
            check_bool "names the test-only export" true
              (Helpers.contains f.Rules.message "`test_only`");
            check_bool "says no executable reaches it" true
              (Helpers.contains f.Rules.message "no executable")
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "dead-export: with no executable in scope, references suffice" (fun () ->
        check_rules "no finding" [] (graph_findings (liveness_fixture ~exe:false)));
    case "dead-export: a plain submodule's test-only member is dead" (fun () ->
        let sources =
          submodule_fixture
            ~mli:"module Sub : sig\n  val test_only : int -> int\nend\n"
            ~ml:"module Sub = struct\n  let test_only x = x - 1\nend\n"
            ~test:"let () = print_int (Fix.Fix_api.Sub.test_only 1)\n"
        in
        match graph_findings sources with
        | [ f ] ->
            Alcotest.(check string) "rule" "dead-export" f.Rules.rule;
            check_bool "names the member" true
              (Helpers.contains f.Rules.message "`Sub.test_only`");
            check_int "at its val" 2 f.Rules.line
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "dead-export: module type and functor members are not judged" (fun () ->
        let sig_s = "module type S = sig\n  val size : int\nend\n\n" in
        let sources =
          submodule_fixture
            ~mli:(sig_s ^ "module Make (P : S) : sig\n  val test_only : int -> int\nend\n")
            ~ml:
              (sig_s
             ^ "module Make (P : S) = struct\n  let test_only x = x + P.size\nend\n")
            ~test:
              "module M = Fix.Fix_api.Make (struct let size = 1 end)\n\
               let () = print_int (M.test_only 1)\n"
        in
        check_rules "no finding" [] (graph_findings sources));
    case "every program rule name is registered" (fun () ->
        List.iter
          (fun r -> check_bool r true (Rules.program_rule_name r))
          [
            "par-unsafe-state"; "par-ambient-rng"; "par-wall-clock";
            "rng-stream-discipline"; "dead-export";
          ];
        check_bool "file-local rule is not a program rule" true
          (not (Rules.program_rule_name "no-ambient-random")));
    case "chains answer --why through the graph" (fun () ->
        let p = program (race_fixture ()) in
        match Program.find_symbol p "Fix_state.touch" with
        | None -> Alcotest.fail "touch not found"
        | Some n ->
            check_bool "reachable" true
              (Program.parallel_reachable p n.Program.n_id);
            let chain = Program.chain p n.Program.n_id in
            check_bool "chain >= 2" true (List.length chain >= 2);
            check_bool "ends at touch" true
              (match List.rev chain with
              | last :: _ -> Helpers.contains last "touch"
              | [] -> false));
    case "dead-export: a constructor named like an alias is not a use" (fun () ->
        let sources =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ("fix/fix_api.ml", "let used x = x + 1\nlet unused x = x - 1\n");
            ("fix/fix_api.mli", "val used : int -> int\nval unused : int -> int\n");
            ( "fix/fix_caller.ml",
              "module Api = Fix_api\n\
               type family = Api | Other\n\
               let go = function Api -> Api.used 1 | Other -> 0\n" );
          ]
        in
        match graph_findings sources with
        | [ f ] -> check_bool "names the dead export" true (Helpers.contains f.Rules.message "`unused`")
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "dead-export: a self-named alias still reaches its module" (fun () ->
        (* [module Fix_api = Fix_api] names the sibling file, so both a
           use through the alias and one through [Fix_caller.Fix_api]
           reach [used]. *)
        let fixture caller =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ("fix/fix_api.ml", "let used x = x + 1\nlet unused x = x - 1\n");
            ("fix/fix_api.mli", "val used : int -> int\nval unused : int -> int\n");
            ("fix/fix_caller.ml", caller);
          ]
        in
        List.iter
          (fun (label, sources) ->
            match graph_findings sources with
            | [ f ] ->
                check_bool (label ^ ": names the dead export") true
                  (Helpers.contains f.Rules.message "`unused`")
            | fs -> Alcotest.failf "%s: expected 1 finding, got %d" label (List.length fs))
          [
            ( "through the alias",
              fixture "module Fix_api = Fix_api\nlet go () = Fix_api.used 1\n" );
            ( "through the aliasing module",
              fixture "module Fix_api = Fix_api\n"
              @ [ ("fix/fix_user.ml", "let go () = Fix_caller.Fix_api.used 1\n") ] );
          ]);
  ]

(* --- Pragma accessors (the API the staleness messages are built from) ------- *)

let pragma_accessor_tests =
  [
    case "pragma accessors expose line, rules and coverage" (fun () ->
        let scanned =
          Rules.scan_source ~file:"lib/fixture/code.ml"
            "(* lint: allow no-ambient-random — fixture *)\nlet x = 1\n"
        in
        match scanned.Rules.s_pragmas with
        | [ p ] ->
            check_int "line" 1 (Rules.pragma_line p);
            Alcotest.(check (list string))
              "rules" [ "no-ambient-random" ] (Rules.pragma_rules p);
            check_bool "covers next line" true
              (Rules.pragma_covers p ~rule:"no-ambient-random" ~line:2);
            check_bool "not three lines down" true
              (not (Rules.pragma_covers p ~rule:"no-ambient-random" ~line:4));
            check_bool "not another rule" true
              (not (Rules.pragma_covers p ~rule:"no-wall-clock" ~line:2));
            (* marking it used by hand (as the program driver does for
               graph findings) keeps apply_pragmas from calling it stale *)
            Rules.pragma_mark_used p;
            check_rules "no stale report" []
              (Rules.apply_pragmas scanned ~extra:[])
        | ps -> Alcotest.failf "expected 1 pragma, got %d" (List.length ps));
    case "stale pragmas name the nearest enclosing binding" (fun () ->
        let src =
          "let outer = 1\n\n(* lint: allow no-ambient-random — nothing here *)\nlet inner = 2\n"
        in
        let tree = Option.get (Rules.scan_source ~file:"lib/fixture/code.ml" src).Rules.s_tree in
        (match Rules.enclosing_binding tree 3 with
        | Some ("let", "outer") -> ()
        | Some (kw, n) -> Alcotest.failf "expected `let outer`, got `%s %s`" kw n
        | None -> Alcotest.fail "no enclosing binding found");
        match findings src with
        | [ f ] ->
            check_bool "message names the rule" true
              (Helpers.contains f.Rules.message "no-ambient-random");
            check_bool "message names the binding" true
              (Helpers.contains f.Rules.message "let outer")
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  ]

(* --- Driver and self-lint --------------------------------------------------- *)

(* dune runtest runs tests from _build/default/test, beside the copies
   of the source trees the test stanza depends on; dune exec runs them
   from the project root. *)
let root =
  let cwd = Sys.getcwd () in
  if Sys.file_exists (Filename.concat cwd "lib") then cwd else Filename.dirname cwd

(* The [--json] finding codec: external tooling keyed to
   [Lint.schema_version] decodes what it prints, so a finding must
   survive to_json -> print -> parse -> decode exactly, the
   interprocedural [why] chain included. *)
let finding_of_json json =
  let str key =
    match Json.member key json with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "finding: missing string %S" key)
  in
  let ( let* ) = Result.bind in
  let* file = str "file" in
  let* rule = str "rule" in
  let* message = str "message" in
  let* line =
    match Json.member "line" json with
    | Some (Json.Int n) -> Ok n
    | _ -> Error "finding: missing int \"line\""
  in
  let* severity =
    match Json.member "severity" json with
    | Some (Json.String "error") -> Ok Rules.Error
    | Some (Json.String "warning") -> Ok Rules.Warning
    | _ -> Error "finding: bad \"severity\""
  in
  let* why =
    match Json.member "why" json with
    | Some (Json.List l) ->
        List.fold_left
          (fun acc j ->
            match (acc, j) with
            | Ok acc, Json.String s -> Ok (s :: acc)
            | Ok _, _ -> Error "finding: non-string in \"why\""
            | e, _ -> e)
          (Ok []) l
        |> Result.map List.rev
    | None -> Ok []
    | Some _ -> Error "finding: bad \"why\""
  in
  Ok { Rules.file; line; rule; severity; message; why }

let gen_string rng =
  let alphabet = [| 'a'; 'b'; 'z'; ' '; '"'; '\\'; '\n'; '\t'; '/'; '0' |] in
  String.init (Rng.int rng 9) (fun _ -> Rng.pick rng alphabet)

let gen_finding rng =
  let gen_path rng =
    let segs = 1 + Rng.int rng 3 in
    String.concat "/" (List.init segs (fun _ -> gen_string rng)) ^ ".ml"
  in
  let rules = [| "no-wall-clock"; "par-unsafe-state"; "dead-export" |] in
  {
    Rules.file = gen_path rng;
    line = 1 + Rng.int rng 10_000;
    rule = (if Rng.bool rng then Rng.pick rng rules else gen_string rng);
    severity = (if Rng.bool rng then Rules.Error else Rules.Warning);
    message = gen_string rng;
    why = List.init (Rng.int rng 5) (fun _ -> gen_string rng);
  }

let driver_tests =
  [
    case "expand_paths errors on a missing path" (fun () ->
        match Lint.expand_paths [ "no/such/path-xyzzy" ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an error");
    case "render_json parses and counts findings" (fun () ->
        let report =
          { Lint.files = [ "lib/a.ml" ];
            findings = findings "let x = Random.int 5" }
        in
        let j = Json.of_string (Lint.render_json report) in
        check_bool "schema_version" true
          (Json.member "schema_version" j
          = Some (Json.Int Lint.schema_version));
        check_bool "files_scanned" true
          (Json.member "files_scanned" j
          = Some (Json.Int 1));
        (match Json.member "findings" j with
        | Some (Json.List [ _ ]) -> ()
        | _ -> Alcotest.fail "expected one finding in JSON");
        check_int "exit 1 on findings" 1 (Lint.exit_code report));
    case "exit_code is 0 when clean" (fun () ->
        check_int "clean" 0 (Lint.exit_code { Lint.files = []; findings = [] }));
    case "lint_files takes exact files, no directory walk" (fun () ->
        let f = Filename.concat root "lib/prng/rng.ml" in
        let report = Lint.lint_files [ f ] in
        Alcotest.(check (list string)) "just that file" [ f ] report.Lint.files);
    case "the repo's own sources lint clean" (fun () ->
        let paths = List.map (Filename.concat root) [ "lib"; "bin"; "test" ] in
        match Lint.lint_paths paths with
        | Error msg -> Alcotest.failf "lint_paths: %s" msg
        | Ok report ->
            check_bool "several files scanned" true (List.length report.Lint.files > 100);
            if report.Lint.findings <> [] then
              Alcotest.failf "repo is not lint-clean:\n%s" (Lint.render_human report));
    case "the repo's own sources survive whole-program analysis" (fun () ->
        let paths =
          List.map (Filename.concat root) [ "lib"; "bin"; "test"; "examples" ]
        in
        match Lint.lint_program paths with
        | Error msg -> Alcotest.failf "lint_program: %s" msg
        | Ok (report, p) ->
            let modules, defs, edges, par = Program.stats p in
            check_bool "a real graph" true
              (modules > 50 && defs > 500 && edges > 1000 && par > 50);
            if report.Lint.findings <> [] then
              Alcotest.failf "repo is not clean under --program:\n%s"
                (Lint.render_human report));
    case "findings survive the --json codec (200 seeded cases)" (fun () ->
        for seed = 1 to 200 do
          let finding = gen_finding (Rng.create ~seed) in
          let printed = Json.to_string (Lint.finding_to_json finding) in
          match finding_of_json (Json.of_string printed) with
          | Ok f -> check_bool (Printf.sprintf "seed %d: %s" seed printed) true (f = finding)
          | Error msg -> Alcotest.failf "seed %d: %s: %s" seed msg printed
        done);
  ]

let () =
  Alcotest.run "lint"
    [
      ("rules", rule_tests);
      ("pragmas", pragma_tests);
      ("extractor", extractor_tests);
      ("program rules", program_rule_tests);
      ("pragma accessors", pragma_accessor_tests);
      ("driver", driver_tests);
    ]
