type t = { core : Lfg.t }

let create ~seed = { core = Lfg.create ~seed }
let of_lfg core = { core }
let copy t = { core = Lfg.copy t.core }
let split t = { core = Lfg.split t.core }

let derive_seed t = Lfg.derive_seed t.core
let substream_seed ~base i = Lfg.mix_seed base i
let substream ~base i = create ~seed:(Lfg.mix_seed base i)

let seed_of_string s =
  (* FNV-1a, folded to a positive OCaml int. *)
  let h = ref 0x0bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    s;
  !h land max_int

let int t n =
  if n <= 0 || n > Lfg.modulus then invalid_arg "Rng.int";
  (* Rejection sampling for exact uniformity. A loop rather than a local
     recursive function, which would allocate a closure on every call. *)
  let limit = Lfg.modulus - (Lfg.modulus mod n) in
  let v = ref (Lfg.next t.core) in
  while !v >= limit do
    v := Lfg.next t.core
  done;
  !v mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in";
  lo + int t (hi - lo + 1)

let float t x =
  (* Two 30-bit draws give a 60-bit uniform in [0, 1). *)
  let hi = Lfg.next t.core and lo = Lfg.next t.core in
  let u =
    (float_of_int hi +. (float_of_int lo /. float_of_int Lfg.modulus))
    /. float_of_int Lfg.modulus
  in
  u *. x

let bool t = Lfg.next t.core land 1 = 1

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1. < p

let geometric_skip t p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric_skip";
  if p >= 1. then 0
  else
    let u =
      (* Avoid log 0. *)
      let rec positive () =
        let v = 1. -. float t 1. in
        if v > 0. then v else positive ()
      in
      positive ()
    in
    int_of_float (Float.floor (log u /. log (1. -. p)))

let exponential t lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential";
  let rec positive () =
    let v = 1. -. float t 1. in
    if v > 0. then v else positive ()
  in
  -.log (positive ()) /. lambda

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a =
  let b = Array.copy a in
  shuffle_in_place t b;
  b

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list"
  | _ -> List.nth l (int t (List.length l))

let sample_without_replacement t ~k ~n =
  if k < 0 || n < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  if k = 0 then [||]
  else if 4 * k <= n then begin
    (* Floyd's algorithm: expected O(k) with a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let idx = ref 0 in
    for j = n - k to n - 1 do
      let v = int t (j + 1) in
      let v = if Hashtbl.mem seen v then j else v in
      Hashtbl.add seen v ();
      out.(!idx) <- v;
      incr idx
    done;
    shuffle_in_place t out;
    out
  end
  else begin
    let a = permutation t n in
    Array.sub a 0 k
  end
