(* Measurement helpers shared by the workloads: the wall and CPU
   clocks, the reference kernel that times are scaled by, order
   statistics, the timed operation loop, process memory and the host
   fingerprint. *)

module Json = Gbisect.Obs.Json

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

type ctx = {
  seed : int;  (* every input of the run derives from it *)
  seconds : float;  (* measured time of the run (split in two when traced) *)
  traced : bool;
  smoke : bool;  (* toy sizes, for the test suite *)
  scratch : string;  (* this workload's scratch directory *)
  gbisect : string;  (* the gbisect executable, for the daemon *)
}

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;  (* the BENCHMARK.json set of the run's mode *)
  detail : metric list;  (* further figures for the report and --out *)
  levels : Json.t;  (* per-level V-cycle rows of a traced run, or Null *)
}

let now = Unix.gettimeofday

(* CPU seconds of this process, every domain included. *)
let cpu_now = Sys.time

(* The reference kernel: a fixed piece of work that is no part of the
   program (sorting a copy of 16,384 fixed integers), run between the
   operations of a workload. On a shared virtual host, CPU time also
   counts what the hypervisor and other tenants take from the run: a
   fixed loop's CPU time varied twofold within a minute there. An
   operation's time divided by the kernel's time right around it is
   its cost in kernels, which the host's speed moves far less. Times
   are reported at reference speed: that cost times [reference_s], the
   kernel's CPU time on that host when it was quiet. *)
let reference_s = 0.004

let reference_items = Array.init 16384 (fun i -> (i * 2654435761) land 0xffffff)
let reference_scratch = Array.make 16384 0

(* CPU seconds of one run of the kernel. It allocates nothing, so no
   collector work for the program's heap falls into it, and the copy
   before the timed sort brings both arrays into the cache. *)
let reference () =
  Array.blit reference_items 0 reference_scratch 0 16384;
  let t0 = cpu_now () in
  Array.sort Int.compare reference_scratch;
  cpu_now () -. t0

(* [seconds] of work at reference speed, given the kernel's times right
   before and right after it. *)
let at_reference_speed seconds ~before ~after = seconds *. reference_s /. ((before +. after) /. 2.)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest rank: the smallest sample with at least a share [q] of the
   samples at or below it (what gbisect bombard reports). *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* First and third quartiles by the default ('exclusive') method of
   Python's statistics.quantiles(n=4): the rule the benchmark's
   run-to-run spread is judged by. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

type checkpoint = { ops : int; cpu : float; kernel : float }

(* A checkpoint after [ops] operations, [cpu] seconds of CPU time: runs
   the reference kernel. *)
let checkpoint ops cpu = { ops; cpu; kernel = reference () }

(* Seconds per operation at reference speed from checkpoints, oldest
   first: the median over the blocks between consecutive checkpoints,
   each scaled by the kernel's times at its two ends. *)
let median_block_cost checkpoints =
  let rec go acc = function
    | a :: (b :: _ as rest) when b.ops > a.ops ->
        go
          (at_reference_speed
             ((b.cpu -. a.cpu) /. float_of_int (b.ops - a.ops))
             ~before:a.kernel ~after:b.kernel
          :: acc)
          rest
    | _ :: rest -> go acc rest
    | [] -> acc
  in
  median (go [] checkpoints)

(* Run [op i] for i = 0, 1, ... until at least [min_ops] have run and
   [seconds] have passed; the results in order. *)
let timed_loop ~seconds ~min_ops op =
  let t0 = now () in
  let rec go i acc =
    if i >= min_ops && now () -. t0 >= seconds then List.rev acc else go (i + 1) (op i :: acc)
  in
  go 0 []

(* [repeat_setup k f] runs [f] [k] times, each between two runs of the
   reference kernel, and returns its median time on [clock] at
   reference speed with the last result, handing each earlier result to
   [dispose] first: set-up is timed several times per run so that its
   median is steady. Each run starts from a compacted heap, so that
   the garbage of the one before does not fall into its time. *)
let repeat_setup ?(clock = now) ?(dispose = ignore) k f =
  let rec go i times last before =
    if i = k then (median times, Option.get last)
    else begin
      Option.iter dispose last;
      Gc.compact ();
      let t0 = clock () in
      let r = f () in
      let seconds = clock () -. t0 in
      let after = reference () in
      go (i + 1) (at_reference_speed seconds ~before ~after :: times) (Some r) after
    end
  in
  go 0 [] None (reference ())

let status_field ?pid key =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> None
        | Some line when String.starts_with ~prefix:(key ^ ":") line ->
            let n = String.length key + 1 in
            Some (String.trim (String.sub line n (String.length line - n)))
        | Some _ -> go ()
      in
      go ())

(* Peak resident set (VmHWM) of this process or of [pid], in MiB. *)
let peak_rss_mib ?pid () =
  match status_field ?pid "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> failwith "VmHWM is not reported by /proc"

(* CPU seconds that process [pid] has used so far, every thread
   included: the first field of /proc/PID/task/TID/schedstat, in
   nanoseconds. A thread that ends while it is read counts nothing. *)
let process_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_text (Filename.concat (Filename.concat dir tid) "schedstat")
          In_channel.input_all
      with
      | exception Sys_error _ -> acc
      | text -> acc +. (Scanf.sscanf text "%f" Fun.id /. 1e9))
    0. (Sys.readdir dir)

(* What `nproc` prints: the CPUs this process may run on. *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some list ->
      List.fold_left
        (fun acc range ->
          match String.split_on_char '-' range with
          | [ a ] when a <> "" -> acc + 1
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | _ -> acc)
        0
        (String.split_on_char ',' list)

let host () =
  let cpu =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | exception Sys_error _ -> "unknown"
    | text -> (
        match
          List.find_opt
            (String.starts_with ~prefix:"model name")
            (String.split_on_char '\n' text)
        with
        | Some line -> String.trim (List.nth (String.split_on_char ':' line) 1)
        | None -> "unknown")
  in
  Json.Obj
    [
      ("nproc", Json.Int (nproc ()));
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("cpu", Json.String cpu);
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("os_type", Json.String Sys.os_type);
    ]

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

