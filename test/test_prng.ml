(* Tests for the lagged-Fibonacci PRNG and the variate toolkit. *)

module Lfg = Gbisect.Lfg
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- Lfg core -------------------------------------------------------- *)

let lfg_tests =
  [
    case "self_test passes" (fun () -> check_bool "self test" true (Lfg.self_test ()));
    case "deterministic for equal seeds" (fun () ->
        let a = Lfg.create ~seed:123 and b = Lfg.create ~seed:123 in
        for i = 1 to 5000 do
          check_int (Printf.sprintf "draw %d" i) (Lfg.next a) (Lfg.next b)
        done);
    case "different seeds diverge" (fun () ->
        let a = Lfg.create ~seed:1 and b = Lfg.create ~seed:2 in
        let same = ref 0 in
        for _ = 1 to 1000 do
          if Lfg.next a = Lfg.next b then incr same
        done;
        check_bool "streams differ" true (!same < 10));
    case "outputs stay in range" (fun () ->
        let g = Lfg.create ~seed:77 in
        for _ = 1 to 10_000 do
          let v = Lfg.next g in
          check_bool "in [0, modulus)" true (v >= 0 && v < Lfg.modulus)
        done);
    case "copy reproduces the tail" (fun () ->
        let a = Lfg.create ~seed:5 in
        for _ = 1 to 137 do
          ignore (Lfg.next a)
        done;
        let b = Lfg.copy a in
        for i = 1 to 1000 do
          check_int (Printf.sprintf "tail draw %d" i) (Lfg.next a) (Lfg.next b)
        done);
    case "split streams look independent" (fun () ->
        let a = Lfg.create ~seed:9 in
        let b = Lfg.split a in
        let matches = ref 0 in
        for _ = 1 to 1000 do
          if Lfg.next a = Lfg.next b then incr matches
        done;
        check_bool "few collisions" true (!matches < 10));
    case "mean is near the middle of the range" (fun () ->
        let g = Lfg.create ~seed:31 in
        let n = 200_000 in
        let sum = ref 0. in
        for _ = 1 to n do
          sum := !sum +. float_of_int (Lfg.next g)
        done;
        let mean = !sum /. float_of_int n /. float_of_int Lfg.modulus in
        (* sd of the mean ~ 1/sqrt(12 n) ~ 0.00065; allow 5 sigma. *)
        check_bool "mean in [0.497, 0.503]" true (mean > 0.497 && mean < 0.503));
    case "bits distribute evenly" (fun () ->
        let g = Lfg.create ~seed:99 in
        let ones = Array.make Lfg.bits 0 in
        let n = 20_000 in
        for _ = 1 to n do
          let v = Lfg.next g in
          for b = 0 to Lfg.bits - 1 do
            if v land (1 lsl b) <> 0 then ones.(b) <- ones.(b) + 1
          done
        done;
        Array.iteri
          (fun b c ->
            let frac = float_of_int c /. float_of_int n in
            check_bool
              (Printf.sprintf "bit %d frac %.3f in [0.48,0.52]" b frac)
              true
              (frac > 0.48 && frac < 0.52))
          ones);
  ]

(* --- Rng variates ----------------------------------------------------- *)

let int_tests =
  [
    case "int respects the bound" (fun () ->
        let r = Helpers.rng () in
        for n = 1 to 50 do
          for _ = 1 to 200 do
            let v = Rng.int r n in
            check_bool "0 <= v < n" true (v >= 0 && v < n)
          done
        done);
    case "int rejects non-positive bounds" (fun () ->
        let r = Helpers.rng () in
        Alcotest.check_raises "zero" (Invalid_argument "Rng.int") (fun () ->
            ignore (Rng.int r 0));
        Alcotest.check_raises "negative" (Invalid_argument "Rng.int") (fun () ->
            ignore (Rng.int r (-3))));
    case "int draws match the recursive rejection sampler" (fun () ->
        (* Rng.int as it was written before its loop: the same rejection
           rule as a local recursive function. Near 2^29 + 1 about half
           of all raw draws are rejected, so every draw below takes the
           rejection path often; at small bounds it almost never fires. *)
        let recursive lfg n =
          let limit = Lfg.modulus - (Lfg.modulus mod n) in
          let rec draw () =
            let v = Lfg.next lfg in
            if v < limit then v mod n else draw ()
          in
          draw ()
        in
        let half = Lfg.modulus / 2 in
        List.iter
          (fun n ->
            let a = Lfg.create ~seed:(n land 0xffff) in
            let b = Lfg.copy a in
            let r = Rng.of_lfg a in
            for i = 1 to 2000 do
              check_int (Printf.sprintf "n=%d draw %d" n i) (recursive b n) (Rng.int r n)
            done;
            check_int (Printf.sprintf "n=%d stream position" n) (Lfg.next b) (Lfg.next a))
          [ 1; 2; 3; 7; 1000; half + 1; half + 12345; ((Lfg.modulus / 3) * 2) + 1;
            Lfg.modulus - 1; Lfg.modulus ]);
    case "int n=1 is always 0" (fun () ->
        let r = Helpers.rng () in
        for _ = 1 to 100 do
          check_int "only value" 0 (Rng.int r 1)
        done);
    case "int is roughly uniform" (fun () ->
        let r = Helpers.rng () in
        let n = 10 in
        let counts = Array.make n 0 in
        let draws = 50_000 in
        for _ = 1 to draws do
          let v = Rng.int r n in
          counts.(v) <- counts.(v) + 1
        done;
        Array.iteri
          (fun i c ->
            let frac = float_of_int c /. float_of_int draws in
            check_bool (Printf.sprintf "bucket %d near 0.1" i) true
              (frac > 0.08 && frac < 0.12))
          counts);
    case "int_in covers both endpoints" (fun () ->
        let r = Helpers.rng () in
        let lo = -3 and hi = 3 in
        let seen = Hashtbl.create 8 in
        for _ = 1 to 2000 do
          let v = Rng.int_in r lo hi in
          check_bool "in range" true (v >= lo && v <= hi);
          Hashtbl.replace seen v ()
        done;
        check_int "all 7 values seen" 7 (Hashtbl.length seen));
    case "int_in rejects inverted ranges" (fun () ->
        let r = Helpers.rng () in
        Alcotest.check_raises "inverted" (Invalid_argument "Rng.int_in") (fun () ->
            ignore (Rng.int_in r 5 4)));
  ]

let float_tests =
  [
    case "float stays below the bound" (fun () ->
        let r = Helpers.rng () in
        for _ = 1 to 10_000 do
          let v = Rng.float r 2.5 in
          check_bool "in [0, 2.5)" true (v >= 0. && v < 2.5)
        done);
    case "bool is fair-ish" (fun () ->
        let r = Helpers.rng () in
        let heads = ref 0 in
        let n = 20_000 in
        for _ = 1 to n do
          if Rng.bool r then incr heads
        done;
        let frac = float_of_int !heads /. float_of_int n in
        check_bool "frac near 0.5" true (frac > 0.47 && frac < 0.53));
    case "bernoulli extremes" (fun () ->
        let r = Helpers.rng () in
        for _ = 1 to 100 do
          check_bool "p=0 never" false (Rng.bernoulli r 0.);
          check_bool "p=1 always" true (Rng.bernoulli r 1.)
        done);
    case "bernoulli respects p" (fun () ->
        let r = Helpers.rng () in
        let hits = ref 0 in
        let n = 50_000 in
        for _ = 1 to n do
          if Rng.bernoulli r 0.2 then incr hits
        done;
        let frac = float_of_int !hits /. float_of_int n in
        check_bool "frac near 0.2" true (frac > 0.18 && frac < 0.22));
    case "geometric_skip mean matches (1-p)/p" (fun () ->
        let r = Helpers.rng () in
        let p = 0.1 in
        let n = 50_000 in
        let sum = ref 0 in
        for _ = 1 to n do
          sum := !sum + Rng.geometric_skip r p
        done;
        let mean = float_of_int !sum /. float_of_int n in
        check_bool "mean near 9" true (mean > 8.5 && mean < 9.5));
    case "geometric_skip p=1 is always 0" (fun () ->
        let r = Helpers.rng () in
        for _ = 1 to 100 do
          check_int "no failures" 0 (Rng.geometric_skip r 1.0)
        done);
    case "geometric_skip rejects p<=0" (fun () ->
        let r = Helpers.rng () in
        Alcotest.check_raises "p=0" (Invalid_argument "Rng.geometric_skip") (fun () ->
            ignore (Rng.geometric_skip r 0.)));
    case "exponential mean matches 1/lambda" (fun () ->
        let r = Helpers.rng () in
        let n = 50_000 in
        let sum = ref 0. in
        for _ = 1 to n do
          sum := !sum +. Rng.exponential r 2.0
        done;
        let mean = !sum /. float_of_int n in
        check_bool "mean near 0.5" true (mean > 0.48 && mean < 0.52));
  ]

let collection_tests =
  [
    case "shuffle permutes (multiset preserved)" (fun () ->
        let r = Helpers.rng () in
        let a = Array.init 100 (fun i -> i) in
        let b = Rng.shuffle r a in
        let sa = List.sort Int.compare (Array.to_list a) in
        let sb = List.sort Int.compare (Array.to_list b) in
        Alcotest.(check (list int)) "same elements" sa sb);
    case "shuffle_in_place leaves length" (fun () ->
        let r = Helpers.rng () in
        let a = Array.init 17 (fun i -> i * i) in
        Rng.shuffle_in_place r a;
        check_int "length" 17 (Array.length a));
    case "permutation is a permutation" (fun () ->
        let r = Helpers.rng () in
        for n = 1 to 30 do
          let p = Rng.permutation r n in
          let seen = Array.make n false in
          Array.iter (fun v -> seen.(v) <- true) p;
          check_bool (Printf.sprintf "n=%d all present" n) true (Array.for_all Fun.id seen)
        done);
    case "permutation mixes positions" (fun () ->
        (* Position 0 should receive each value about uniformly. *)
        let r = Helpers.rng () in
        let n = 8 in
        let counts = Array.make n 0 in
        let draws = 16_000 in
        for _ = 1 to draws do
          let p = Rng.permutation r n in
          counts.(p.(0)) <- counts.(p.(0)) + 1
        done;
        Array.iteri
          (fun v c ->
            let frac = float_of_int c /. float_of_int draws in
            check_bool (Printf.sprintf "value %d at pos 0" v) true
              (frac > 0.10 && frac < 0.15))
          counts);
    case "pick returns members" (fun () ->
        let r = Helpers.rng () in
        let a = [| 2; 4; 8 |] in
        for _ = 1 to 100 do
          let v = Rng.pick r a in
          check_bool "member" true (Array.exists (( = ) v) a)
        done);
    case "pick rejects empty" (fun () ->
        let r = Helpers.rng () in
        Alcotest.check_raises "empty" (Invalid_argument "Rng.pick") (fun () ->
            ignore (Rng.pick r [||])));
    case "pick_list rejects empty" (fun () ->
        let r = Helpers.rng () in
        Alcotest.check_raises "empty" (Invalid_argument "Rng.pick_list") (fun () ->
            ignore (Rng.pick_list r [])));
    case "sample_without_replacement: distinct, in range, right size" (fun () ->
        let r = Helpers.rng () in
        List.iter
          (fun (k, n) ->
            let s = Rng.sample_without_replacement r ~k ~n in
            check_int (Printf.sprintf "k=%d n=%d size" k n) k (Array.length s);
            let seen = Hashtbl.create 16 in
            Array.iter
              (fun v ->
                check_bool "in range" true (v >= 0 && v < n);
                check_bool "distinct" false (Hashtbl.mem seen v);
                Hashtbl.add seen v ())
              s)
          [ (0, 10); (1, 1); (3, 100); (50, 100); (99, 100); (100, 100); (5, 1000) ]);
    case "sample_without_replacement covers uniformly" (fun () ->
        let r = Helpers.rng () in
        let counts = Array.make 20 0 in
        let draws = 20_000 in
        for _ = 1 to draws do
          Array.iter (fun v -> counts.(v) <- counts.(v) + 1)
            (Rng.sample_without_replacement r ~k:2 ~n:20)
        done;
        Array.iteri
          (fun v c ->
            let frac = float_of_int c /. float_of_int (2 * draws) in
            check_bool (Printf.sprintf "element %d" v) true (frac > 0.04 && frac < 0.06))
          counts);
    case "sample_without_replacement rejects k > n" (fun () ->
        let r = Helpers.rng () in
        Alcotest.check_raises "k>n"
          (Invalid_argument "Rng.sample_without_replacement")
          (fun () -> ignore (Rng.sample_without_replacement r ~k:5 ~n:4)));
    case "seed_of_string is stable and spreads" (fun () ->
        check_int "stable" (Rng.seed_of_string "abc") (Rng.seed_of_string "abc");
        check_bool "spreads" true (Rng.seed_of_string "abc" <> Rng.seed_of_string "abd");
        check_bool "non-negative" true (Rng.seed_of_string "x" >= 0));
    case "split child differs from parent continuation" (fun () ->
        let r = Helpers.rng () in
        let child = Rng.split r in
        let collisions = ref 0 in
        for _ = 1 to 1000 do
          if Rng.int r 1_000_000 = Rng.int child 1_000_000 then incr collisions
        done;
        check_bool "few collisions" true (!collisions < 5));
  ]

let () =
  Alcotest.run "prng"
    [
      ("lfg", lfg_tests);
      ("int variates", int_tests);
      ("float variates", float_tests);
      ("collections", collection_tests);
    ]
