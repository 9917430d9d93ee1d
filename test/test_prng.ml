(* Tests for the lagged-Fibonacci PRNG and the variate toolkit. *)

module Lfg = Gbisect.Lfg
module Rng = Gbisect.Rng
module Sa_bisect = Gbisect.Sa_bisect

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- Lfg core -------------------------------------------------------- *)

let lfg_tests =
  [
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
    case "seeds differing only above bit 30 diverge" (fun () ->
        (* The whole seed is scrambled, not its low 30 bits. *)
        List.iter
          (fun (seed, high, first, first_high) ->
            let a = Lfg.create ~seed and b = Lfg.create ~seed:(seed + high) in
            let label = Printf.sprintf "seed %d vs %d" seed (seed + high) in
            check_int (label ^ ": first draw") first (Lfg.next a);
            check_int (label ^ ": first draw, high bits set") first_high (Lfg.next b);
            let same = ref 0 in
            for _ = 1 to 1000 do
              if Lfg.next a = Lfg.next b then incr same
            done;
            check_bool (label ^ ": streams differ") true (!same < 10))
          [
            (1, 1 lsl 30, 851_099_727, 484_874_023);
            (0, 1 lsl 30, 500_652_899, 991_478_526);
            (12345, 1 lsl 45, 507_416_443, 828_187_129);
            (7, 1 lsl 61, 99_005_855, 631_861_017);
          ]);
    case "outputs stay in range" (fun () ->
        let g = Lfg.create ~seed:77 in
        for _ = 1 to 10_000 do
          let v = Lfg.next g in
          check_bool "in [0, modulus)" true (v >= 0 && v < Lfg.modulus)
        done);
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

(* Bounds on both sides of the rejection path: near 2^29 + 1 about
   half of all raw draws are rejected, at small bounds almost none. *)
let bounds =
  let half = Lfg.modulus / 2 in
  [ 1; 2; 3; 7; 1000; half + 1; half + 12345; ((Lfg.modulus / 3) * 2) + 1;
    Lfg.modulus - 1; Lfg.modulus ]

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
           rule as a local recursive function. *)
        let recursive lfg n =
          let limit = Lfg.modulus - (Lfg.modulus mod n) in
          let rec draw () =
            let v = Lfg.next lfg in
            if v < limit then v mod n else draw ()
          in
          draw ()
        in
        List.iter
          (fun n ->
            (* Rng.create is the Lfg of the same seed, and
               [Rng.int r modulus] is one raw draw *)
            let b = Lfg.create ~seed:(n land 0xffff) in
            let r = Rng.create ~seed:(n land 0xffff) in
            for i = 1 to 2000 do
              check_int (Printf.sprintf "n=%d draw %d" n i) (recursive b n) (Rng.int r n)
            done;
            check_int (Printf.sprintf "n=%d stream position" n) (Lfg.next b)
              (Rng.int r Lfg.modulus))
          bounds);
    case "hoisted draws match int and float" (fun () ->
        (* What the annealing plateau draws, through its inline copies
           of the generator's step: [Sa_bisect.bounded] with the limit
           computed once is [Rng.int] draw for draw (at [half + 1]
           about half of all raw draws are rejected), [Sa_bisect.lfg_next]
           is [Lfg.next], and two of its draws, [hi] then [lo], make
           [Rng.float r 1.0] bit for bit. Each stream runs through many
           wraps of the 100-slot lag buffer. *)
        List.iter
          (fun n ->
            let a = Rng.create ~seed:(n land 0xffff) and b = Rng.create ~seed:(n land 0xffff) in
            let limit = Rng.rejection_limit n in
            for i = 1 to 2000 do
              check_int (Printf.sprintf "n=%d draw %d" n i) (Rng.int a n)
                (Sa_bisect.bounded b n ~limit)
            done;
            check_int (Printf.sprintf "n=%d stream position" n) (Lfg.next a)
              (Sa_bisect.lfg_next b))
          bounds;
        let a = Helpers.rng () and b = Helpers.rng () in
        for i = 1 to 1000 do
          check_int (Printf.sprintf "raw draw %d" i) (Lfg.next a) (Sa_bisect.lfg_next b)
        done;
        for i = 1 to 100_000 do
          let hi = Sa_bisect.lfg_next b in
          let lo = Sa_bisect.lfg_next b in
          let u = (float_of_int hi +. (float_of_int lo *. 0x1p-30)) *. 0x1p-30 in
          let f = Rng.float a 1.0 in
          if not (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float u)) then
            Alcotest.failf "uniform %d: %h from raw draws, %h from Rng.float" i u f
        done);
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
  ]

let collection_tests =
  [
    case "shuffle permutes (multiset preserved)" (fun () ->
        let r = Helpers.rng () in
        let a = Array.init 100 (fun i -> i) in
        let b = Array.copy a in
        Rng.shuffle_in_place r b;
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
  ]

let () =
  Alcotest.run "prng"
    [
      ("lfg", lfg_tests);
      ("int variates", int_tests);
      ("float variates", float_tests);
      ("collections", collection_tests);
    ]
