module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Pool = Gb_par.Pool
module Obs = Gb_obs

type backend = { name : string; solve : Rng.t -> Csr.t -> Bisection.t }

type entry = {
  backend : string;
  bisection : Bisection.t;
  cut : int;
  seconds : float;
}

type outcome = { winner : entry; winner_index : int; entries : entry array }

let run ~backends rng g =
  if backends = [] then invalid_arg "Race.run: empty portfolio";
  let arr = Array.of_list backends in
  (* One derived base, one substream per portfolio slot: backend i sees
     the same stream whether the heats run sequentially or fanned out,
     so the whole outcome — including every loser's cut — is
     bit-identical at any --jobs value. *)
  let base = Rng.derive_seed rng in
  let entries =
    Pool.init (Pool.current ())
      (Array.length arr)
      (fun i ->
        let b = arr.(i) in
        let t0 = Obs.Clock.now () in
        let bisection = b.solve (Rng.substream ~base i) g in
        {
          backend = b.name;
          bisection;
          cut = Bisection.cut bisection;
          seconds = Obs.Clock.now () -. t0;
        })
  in
  (* Seed-stable tie-break: best cut, then the fixed portfolio order
     (lowest index). Wall-clock never participates. *)
  let winner_index = ref 0 in
  Array.iteri
    (fun i e -> if e.cut < entries.(!winner_index).cut then winner_index := i)
    entries;
  (* Telemetry from the orchestrator, in portfolio order, after the
     barrier — keeps the sample stream deterministic. *)
  Array.iter
    (fun e ->
      if Obs.Telemetry.collecting () then
        Obs.Telemetry.sample ("race." ^ e.backend ^ ".cut") (float_of_int e.cut))
    entries;
  { winner = entries.(!winner_index); winner_index = !winner_index; entries }
