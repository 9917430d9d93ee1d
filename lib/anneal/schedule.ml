type initial_temperature = Fixed_temperature of float | Calibrate of float

type t = {
  initial_temperature : initial_temperature;
  cooling : float;
  size_factor : int;
  cutoff : float;
  frozen_after : int;
  max_temperatures : int;
}

let min_acceptance = 0.02
let min_temperature = 1e-4

let default =
  {
    initial_temperature = Calibrate 0.4;
    cooling = 0.95;
    size_factor = 8;
    cutoff = 1.0;
    frozen_after = 5;
    max_temperatures = 1000;
  }

let quick = { default with cooling = 0.9; size_factor = 4; frozen_after = 3 }
let validate t =
  let bad msg = invalid_arg ("Schedule: " ^ msg) in
  (match t.initial_temperature with
  | Fixed_temperature temp -> if temp <= 0. then bad "fixed temperature must be positive"
  | Calibrate f -> if not (f > 0. && f < 1.) then bad "calibration fraction must be in (0,1)");
  if not (t.cooling > 0. && t.cooling < 1.) then bad "cooling must be in (0,1)";
  if t.size_factor < 1 then bad "size_factor must be >= 1";
  if not (t.cutoff > 0. && t.cutoff <= 1.) then bad "cutoff must be in (0,1]";
  if t.frozen_after < 1 then bad "frozen_after must be >= 1";
  if t.max_temperatures < 1 then bad "max_temperatures must be >= 1"
