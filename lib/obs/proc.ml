let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> None
        | Some line -> (
            (* "VmHWM:\t   123456 kB"; a format space matches any whitespace *)
            match Scanf.sscanf_opt line "VmHWM: %d" (fun kb -> kb * 1024) with
            | None -> scan ()
            | found -> found)
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let hostname () =
  match open_in "/proc/sys/kernel/hostname" with
  | exception Sys_error _ -> Option.value (Sys.getenv_opt "HOSTNAME") ~default:"unknown"
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Option.value (In_channel.input_line ic) ~default:"unknown")

let host () =
  [
    ("ocaml_version", Json.String Sys.ocaml_version);
    ("word_size", Json.Int Sys.word_size);
    ("os_type", Json.String Sys.os_type);
    ("hostname", Json.String (hostname ()));
  ]
