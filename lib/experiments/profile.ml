type t = {
  name : string;
  scale : int -> int;
  starts : int;
  replicates : int;
  sa_schedule : Gb_anneal.Schedule.t;
  master_seed : int;
}

let smoke =
  {
    name = "smoke";
    scale = (fun n -> n / 10);
    starts = 1;
    replicates = 1;
    sa_schedule = Gb_anneal.Schedule.quick;
    master_seed = 19890626; (* DAC'89 *)
  }

let quick =
  {
    smoke with
    name = "quick";
    scale = (fun n -> n / 4);
    starts = 2;
    replicates = 1;
    sa_schedule = Gb_anneal.Schedule.default;
  }

let paper =
  {
    quick with
    name = "paper";
    scale = (fun n -> n);
    starts = 2;
    replicates = 3;
    sa_schedule = Gb_anneal.Schedule.default;
  }

let scaled p n =
  let s = p.scale n in
  let s = max 16 s in
  if s land 1 = 1 then s + 1 else s

(* Everything in a profile that can change a cell's value, rendered
   canonically. Part of every result-store key: two profiles with equal
   fingerprints may share cached cells, two with different ones never
   collide. [scale] is a function, so it is fingerprinted by probing
   the paper's instance sizes (every table derives its size from one of
   these probes via [scaled]). The annealing loop's fixed freezing
   threshold and temperature floor sit among the schedule's fields, and
   KL's default pass cap and stopping rule form the "kl=" field, where
   each stood when it was a setting, so stores written then still
   hit. *)
let fingerprint p =
  let sched = p.sa_schedule in
  let initial =
    match sched.Gb_anneal.Schedule.initial_temperature with
    | Gb_anneal.Schedule.Fixed_temperature t -> Printf.sprintf "fixed:%h" t
    | Gb_anneal.Schedule.Calibrate f -> Printf.sprintf "calibrate:%h" f
  in
  Printf.sprintf
    "%s|seed=%d|starts=%d|scale=%d,%d,%d,%d|sa=%s,%h,%d,%h,%h,%d,%h,%d|kl=%d,true"
    p.name p.master_seed p.starts (scaled p 5000) (scaled p 2000) (scaled p 2048)
    (scaled p 500) initial sched.Gb_anneal.Schedule.cooling
    sched.Gb_anneal.Schedule.size_factor sched.Gb_anneal.Schedule.cutoff
    Gb_anneal.Schedule.min_acceptance sched.Gb_anneal.Schedule.frozen_after
    Gb_anneal.Schedule.min_temperature sched.Gb_anneal.Schedule.max_temperatures
    Gb_kl.Kl.default_max_passes

let by_name = function
  | "smoke" -> Some smoke
  | "quick" -> Some quick
  | "paper" | "full" -> Some paper
  | _ -> None
