(* The interprocedural rules, judged against {!Program.t}. Each
   returns plain {!Rules.finding}s; the driver merges them into the
   per-file pragma accounting via {!Rules.apply_pragmas}, so the same
   [(* lint: allow ... *)] mechanism (and the same staleness hygiene)
   covers file-local and whole-program findings alike. *)

let fmt = Printf.sprintf

let chain_text = String.concat " -> "

(* par-unsafe-state: a definition that allocates bare mutable state at
   module init (ref / Hashtbl.create outside any closure) and is
   transitively referenced from a parallel fan-out site. The file-local
   no-naked-mutable-global sees only the defining file; this rule sees
   the worker three calls away. *)
let par_unsafe_state p =
  Array.to_list (Program.nodes p)
  |> List.filter_map (fun n ->
         if
           n.Program.n_def.Resolve.d_mutable_state
           && Program.parallel_reachable p n.Program.n_id
         then
           let why = Program.chain p n.Program.n_id in
           Some
             (Rules.finding ~why ~file:n.Program.n_file
                ~line:n.Program.n_def.Resolve.d_line "par-unsafe-state" Rules.Error
                (fmt
                   "mutable module state `%s` is reachable from a parallel \
                    region (%s); use Atomic, guard with a mutex, or allocate \
                    per-worker"
                   n.Program.n_def.Resolve.d_name (chain_text why)))
         else None)

(* par-ambient-rng / par-wall-clock: an ambient effect (Stdlib Random,
   Unix/Sys clock reads) inside a definition reachable from a worker.
   The file-local rules already ban these outside the owning modules;
   reachability moves the finding into the parallel contract, where
   the owning modules are *not* exempt unless they are safe by
   construction (the allowlist in Rules names the exceptions). *)
let ambient_kind path =
  if Rules.fires_on_value "no-ambient-random" path then Some `Rng
  else if Rules.fires_on_value "no-wall-clock" path then Some `Clock
  else None

let par_ambient p =
  let ref_compare (a : Resolve.reference) (b : Resolve.reference) =
    match List.compare String.compare a.Resolve.r_path b.Resolve.r_path with
    | 0 -> Int.compare a.Resolve.r_line b.Resolve.r_line
    | c -> c
  in
  Array.to_list (Program.nodes p)
  |> List.concat_map (fun n ->
         if not (Program.parallel_reachable p n.Program.n_id) then []
         else
           let why = Program.chain p n.Program.n_id in
           List.filter_map
             (fun r ->
               let path = r.Resolve.r_path in
               match ambient_kind path with
               | Some `Rng ->
                   Some
                     (Rules.finding ~why ~file:n.Program.n_file ~line:r.Resolve.r_line
                        "par-ambient-rng" Rules.Error
                        (fmt
                           "ambient %s draw inside a parallel region (%s); \
                            thread an explicit Rng.t substream instead"
                           (String.concat "." path) (chain_text why)))
               | Some `Clock ->
                   Some
                     (Rules.finding ~why ~file:n.Program.n_file ~line:r.Resolve.r_line
                        "par-wall-clock" Rules.Error
                        (fmt
                           "wall-clock read %s inside a parallel region \
                            (%s); route through Gb_obs.Clock outside the \
                            workers"
                           (String.concat "." path) (chain_text why)))
               | None -> None)
             (List.sort_uniq ref_compare n.Program.n_ext))

(* rng-stream-discipline: a definition that receives an Rng.t (the
   explicit-stream contract) must not conjure a second stream from
   ambient state or a fresh seed — every draw must derive from the
   stream it was handed (Rng.derive_seed / Rng.substream are the
   sanctioned derivations). *)
let second_stream path =
  (match List.rev path with "create" :: "Rng" :: _ -> true | _ -> false)
  || Rules.fires_on_value "no-ambient-random" path

let rng_stream_discipline p =
  Array.to_list (Program.nodes p)
  |> List.filter_map (fun n ->
         let d = n.Program.n_def in
         if not d.Resolve.d_rng_param then None
         else
           let offending =
             List.filter
               (fun r -> second_stream r.Resolve.r_path)
               d.Resolve.d_refs
           in
           match offending with
           | [] -> None
           | r :: _ ->
               Some
                 (Rules.finding ~why:[ n.Program.n_display ] ~file:n.Program.n_file
                    ~line:r.Resolve.r_line "rng-stream-discipline" Rules.Error
                    (fmt
                       "`%s` takes an Rng.t but also opens a second stream \
                        via %s; derive substreams from the stream it was \
                        handed (Rng.derive_seed / Rng.substream)"
                       d.Resolve.d_name
                       (String.concat "." r.Resolve.r_path))))

(* dead-export: a value the .mli exports that nothing outside its own
   module references, or whose definition no executable reaches (so
   only tests, or nothing, call it). A plain submodule's members are
   judged too; module types and functor signatures export nothing
   ({!Resolve.exports}). Operator exports are skipped — their uses are
   applications of a symbol the extractor does not attribute. *)
let dead_export p =
  Program.module_infos p
  |> List.concat_map (fun m ->
         match m.Program.m_intf with
         | None -> []
         | Some intf ->
             List.filter_map
               (fun (name, line) ->
                 if Resolve.is_operator_name name then None
                 else
                   let key = m.Program.m_key in
                   let dead why =
                     Some
                       (Rules.finding ~file:intf ~line "dead-export" Rules.Warning
                          (fmt
                             "`%s` is exported by the interface but %s; \
                              drop the export or pragma-justify the public \
                              API"
                             name why))
                   in
                   if not (Program.export_used p ~module_key:key ~name) then
                     dead ("never referenced outside " ^ m.Program.m_display)
                   else if
                     not (Program.executable_reachable p ~module_key:key ~name)
                   then dead "no executable reaches it"
                   else None)
               m.Program.m_exports)

let check p =
  List.concat
    [
      par_unsafe_state p;
      par_ambient p;
      rng_stream_discipline p;
      dead_export p;
    ]
