(* The repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Workloads: apihash_scale, trials_sym_dam, serve_mix (see their modules).
   With --trace 0, tracing is off whatever IDS_TRACE says and the run
   reports the end-to-end metrics: setup_s, ops_per_s, p50_ms, p99_ms,
   peak_rss_mb. With --trace 1 it reports the per-layer metrics: layer
   probes of every library on the workloads' standard inputs, plus this
   workload's traced loop (round self times, bit counters, GC per op,
   tracing overhead, the per-layer self-time table). stdout carries a
   provenance line, in traced runs the layer table, and last the result
   object; progress goes to stderr. Every output is checked: a failed op
   counts in [failed] and makes [correct] false. *)

open Kit

let usage () =
  prerr_endline
    "usage: main.exe --workload apihash_scale|trials_sym_dam|serve_mix --seed N --seconds S --trace 0|1";
  exit 2

let workloads = [ "apihash_scale"; "trials_sym_dam"; "serve_mix" ]

let parse argv =
  let rec go acc = function
    | [] -> acc
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" -> go ((key, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] argv in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "--workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int "--seconds" and trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, int "--seed", seconds, trace = 1)

(* Traced run. Forks come first (OCaml 5 cannot fork once a domain has
   been spawned), so the serve layer is measured before the two-domain
   trial engine runs. *)
let traced workload ~seed ~seconds =
  let serve = Serve_mix.probes ~seed () in
  let own_serve = if workload = "serve_mix" then Some (Serve_mix.traced ~seed ~seconds) else None in
  let graph = Apihash_scale.setup seed in
  let apihash = Apihash_scale.probes ~graph ~seed () in
  let own_api = if workload = "apihash_scale" then Some (Apihash_scale.traced ~seed ~graph) else None in
  let trials = Trials_sym_dam.probes ~seed () in
  let own_trials =
    if workload = "trials_sym_dam" then begin
      let inst, _ = Trials_sym_dam.setup seed in
      Some (Trials_sym_dam.traced ~seed ~inst)
    end
    else None
  in
  match List.filter_map Fun.id [ own_serve; own_api; own_trials ] with
  | [ (attempted, failed, own) ] -> (attempted, failed, serve @ apihash @ trials @ own)
  | _ -> die "no traced loop for %s" workload

let () =
  let workload, seed, seconds, trace = parse (List.tl (Array.to_list Sys.argv)) in
  print_endline (json_to_string (provenance ~workload ~seed ~seconds ~trace));
  let attempted, failed, metrics =
    if trace then traced workload ~seed ~seconds
    else
      match workload with
      | "apihash_scale" -> Apihash_scale.end_to_end ~seed ~seconds
      | "trials_sym_dam" -> Trials_sym_dam.end_to_end ~seed ~seconds
      | _ -> Serve_mix.end_to_end ~seed ~seconds
  in
  if failed > 0 then note "%s: %d of %d ops failed" workload failed attempted;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics
