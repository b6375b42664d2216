(* Workload serve_mix: an ids-serve daemon forked with Server.run on a
   config built here (two workers, no chaos, synced run log), driven by one
   client connection that keeps two requests in flight — a closed loop.
   Requests cycle over every Catalog entry, in an order shuffled per cycle
   from the seed, at a fixed trial budget. An op is one served request;
   each served record must be byte-equal to an in-process replay. *)

open Kit
module Server = Ids_serve.Server
module Client = Ids_serve.Client
module Request = Ids_serve.Request
module Catalog = Ids_serve.Catalog
module Chaos = Ids_serve.Chaos
module Supervisor = Ids_serve.Supervisor
module Fault = Ids_network.Fault
module Rng = Ids_bignum.Rng
module Trace = Ids_obs.Trace

let workers = 2
let window = 2
let trials = 256
let boot_reps = 5

(* Scratch directory for the socket, run log and trace, under the working
   directory (a relative socket path stays under the 108-byte limit). *)
let run_dir () =
  let d = Printf.sprintf ".perfbench_run/%d" (Unix.getpid ()) in
  List.iter
    (fun p -> try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ ".perfbench_run"; d ];
  d

let remove_tree d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end;
  try Sys.rmdir ".perfbench_run" with Sys_error _ -> ()

let config ~dir ~telemetry =
  { Server.socket = Filename.concat dir "serve.sock";
    sup = { Supervisor.default with Supervisor.workers; queue_bound = 64 };
    chaos = Chaos.none;
    log_path = Filename.concat dir "runs.jsonl";
    log_sync = true;
    verbose = false;
    telemetry;
    trace_path = (if telemetry then Filename.concat dir "trace.json" else "")
  }

(* --- daemon lifecycle ------------------------------------------------------------ *)

type daemon = { pid : int; client : Client.t; ready_ns : int }

(* The running daemon, killed if the benchmark exits early (a failed check
   exits through [Kit.die]). *)
let live = ref None

let () =
  at_exit (fun () ->
      match !live with
      | Some pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        live := None
      | None -> ())

(* Fork the daemon and poll its socket every 0.2 ms until it answers. *)
let boot cfg =
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ cfg.Server.log_path; cfg.Server.trace_path ];
  flush stdout;
  flush stderr;
  let t0 = now_ns () in
  match Unix.fork () with
  | 0 -> (
    match Server.run cfg with
    | Ok () -> Unix._exit 0
    | Error e ->
      prerr_endline ("perfbench daemon: " ^ e);
      Unix._exit 1)
  | pid ->
    live := Some pid;
    let rec poll () =
      match Client.connect ~wait:0. cfg.Server.socket with
      | Ok c -> c
      | Error e ->
        if now_ns () - t0 > 10_000_000_000 then die "daemon not ready after 10 s: %s" e;
        Unix.sleepf 0.0002;
        poll ()
    in
    let client = poll () in
    { pid; client; ready_ns = now_ns () - t0 }

let stop d =
  Client.close d.client;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let status = Unix.waitpid [] d.pid in
  live := None;
  match status with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> die "daemon exited %d after SIGTERM" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> die "daemon stopped by signal %d" s

(* Largest VmHWM among the daemon and its worker processes. *)
let daemon_peak_rss_mb d = List.fold_left (fun acc p -> max acc (peak_rss_mb p)) (peak_rss_mb d.pid) (children d.pid)

let daemon_stats d =
  match Client.request d.client { Request.id = "stats"; op = Request.Stats Request.Basic; trace = None } with
  | Ok (Request.Stats_reply { stats; _ }) -> stats
  | Ok _ -> die "stats: unexpected reply"
  | Error e -> die "stats: %s" e

(* --- requests and the in-process oracle --------------------------------------------- *)

let entries () = Array.of_list (Catalog.entries ())

(* Request [i]: cycle [i / k] visits every entry once, in a seeded order. *)
let request_stream ~seed =
  let es = entries () in
  let k = Array.length es in
  let order = Array.init k Fun.id and cycle = ref (-1) in
  fun i ->
    if i / k <> !cycle then begin
      cycle := i / k;
      Array.iteri (fun j _ -> order.(j) <- j) order;
      Rng.shuffle (Rng.create (Rng.key [ seed; 0x5e4; !cycle ])) order
    end;
    let e = es.(order.(i mod k)) in
    Request.make_estimate ~id:(Printf.sprintf "q%d" i) ~protocol:e.Catalog.protocol ~strategy:e.Catalog.strategy
      ~trials ()

let key_of (r : Request.t) =
  match r.Request.op with
  | Request.Estimate { protocol; strategy; _ } -> protocol ^ "/" ^ strategy
  | _ -> ""

(* Expected record and in-process compute time per catalog entry, from an
   untraced replay in this process. *)
let oracle () =
  let was = Obs.enabled () in
  Obs.set_enabled false;
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (e : Catalog.entry) ->
      let run () =
        Catalog.execute_request ~protocol:e.Catalog.protocol ~strategy:e.Catalog.strategy ~trials ~fault:Fault.none
      in
      let record = match run () with Ok r -> r | Error m -> die "oracle: %s" m in
      let ms = median (List.init 3 (fun _ -> ms_of_ns (snd (timed run)))) in
      Hashtbl.replace tbl (e.Catalog.protocol ^ "/" ^ e.Catalog.strategy) (record, ms))
    (entries ());
  Obs.set_enabled was;
  tbl

(* A telemetry-on record embeds its metrics window; compare net of it. *)
let strip_metrics s =
  match Json.parse s with
  | Ok (Json.Obj kv) -> Some (Json.Obj (List.filter (fun (k, _) -> k <> "metrics") kv))
  | Ok _ | Error _ -> None

let record_ok ~telemetry oracle req record =
  match Hashtbl.find_opt oracle (key_of req) with
  | None -> false
  | Some (want, _) ->
    if telemetry then
      match (strip_metrics record, strip_metrics want) with Some a, Some b -> a = b | _ -> false
    else record = want

type served = { req : Request.t; lat_ns : int; resp : Request.response }

(* Closed loop: keep [window] requests in flight until [count] have been
   answered or [budget_ns] has passed (then drain what is in flight). *)
let drive ?(window = window) d ~next ~count ~budget_ns =
  let t0 = now_ns () in
  let inflight = Hashtbl.create 4 in
  let out = ref [] and sent = ref 0 and got = ref 0 in
  let open_more () = !sent < count && now_ns () - t0 < budget_ns in
  let fill () =
    while open_more () && !sent - !got < window do
      let req = next !sent in
      Hashtbl.replace inflight req.Request.id (req, now_ns ());
      (match Client.send d.client req with Ok () -> () | Error e -> die "send: %s" e);
      incr sent
    done
  in
  fill ();
  while !got < !sent do
    (match Client.recv d.client with
    | Error e -> die "recv: %s" e
    | Ok resp -> (
      let id = Request.response_id resp in
      match Hashtbl.find_opt inflight id with
      | None -> die "response for unknown id %S" id
      | Some (req, t) ->
        Hashtbl.remove inflight id;
        out := { req; lat_ns = now_ns () - t; resp } :: !out;
        incr got));
    fill ()
  done;
  (List.rev !out, now_ns () - t0)

let check ~telemetry oracle served =
  List.filter
    (fun s ->
      match s.resp with
      | Request.Estimated { record; _ } -> not (record_ok ~telemetry oracle s.req record)
      | _ -> true)
    served
  |> List.length

(* Boot [boot_reps] times; each setup is boot-to-ready plus one request per
   catalog entry. Returns the last daemon, the median setup time, the boot
   times and the warm-up responses (checked once the oracle exists). This
   process builds the catalog (about 1 ms) before the first fork, so the
   daemon's workers inherit it. *)
let setup ~seed ~telemetry dir =
  let k = Array.length (entries ()) in
  let next = request_stream ~seed in
  let rec go i acc_s acc_r warm =
    let cfg = config ~dir ~telemetry in
    let d = boot cfg in
    let w, w_ns = drive d ~next ~count:k ~budget_ns:max_int in
    let acc_s = s_of_ns (d.ready_ns + w_ns) :: acc_s and acc_r = ms_of_ns d.ready_ns :: acc_r in
    if i + 1 < boot_reps then begin
      stop d;
      go (i + 1) acc_s acc_r (w @ warm)
    end
    else (d, median acc_s, acc_r, w @ warm)
  in
  go 0 [] [] []

type session = {
  oracle : (string, string * float) Hashtbl.t;
  served : served list;
  windows : (float * (served list * int)) list;  (** host steal, (requests, wall ns) *)
  bad : int;
  stats : (string * int) list;
  rss_mb : float;
  setup_s : float;
  gc : float * int;  (** client minor words and major collections while driving *)
}

(* The closed loop runs in [window_s] windows (each drains its in-flight
   requests before the next opens), so host steal is measured per window. *)
let window_s = 2

let session ~seed ~telemetry ~budget_ns dir =
  let d, setup_s, _, warm = setup ~seed ~telemetry dir in
  let oracle = oracle () in
  let next = request_stream ~seed in
  let k = Array.length (entries ()) in
  let gc0 = gc_mark () in
  let sent = ref k in
  let windows =
    windows ~min_clean:5 ~min_count:1 ~budget_ns (fun _ ->
        let first = !sent in
        let served, wall =
          drive d ~next:(fun i -> next (first + i)) ~count:max_int ~budget_ns:(window_s * 1_000_000_000)
        in
        sent := first + List.length served;
        (served, wall))
  in
  let gc = gc_since gc0 in
  let served = List.concat_map (fun (_, (ss, _)) -> ss) windows in
  let bad = check ~telemetry oracle warm + check ~telemetry oracle served in
  let stats = daemon_stats d in
  let rss_mb = daemon_peak_rss_mb d in
  stop d;
  { oracle; served; windows; bad; stats; rss_mb; setup_s; gc }

let stat stats name = Option.value (List.assoc_opt name stats) ~default:0
let lat_ms served = List.map (fun s -> ms_of_ns s.lat_ns) served
let failures ~bad ~stats ~count = min count (bad + stat stats "retried" + stat stats "shed")

(* Requests per second of the median clean window. *)
let window_ops s =
  median (List.map (fun (ss, wall) -> float_of_int (List.length ss) /. s_of_ns wall) (clean_windows s.windows))

let end_to_end ~seed ~seconds =
  Obs.set_enabled false;
  let dir = run_dir () in
  let s =
    Fun.protect ~finally:(fun () -> remove_tree dir) (fun () ->
        session ~seed ~telemetry:false ~budget_ns:(seconds * 1_000_000_000) dir)
  in
  let count = List.length s.served in
  let ws = clean_windows s.windows in
  note "serve_mix: %d requests at %d trials" count trials;
  (* Throughput and p50 are medians over the clean windows; p99 pools
     their samples. *)
  ( count,
    failures ~bad:s.bad ~stats:s.stats ~count,
    [ metric "setup_s" "s" s.setup_s;
      metric "ops_per_s" "1/s" (window_ops s);
      metric "p50_ms" "ms" (median (List.map (fun (ss, _) -> median (lat_ms ss)) ws));
      metric "p99_ms" "ms" (quantile 0.99 (List.concat_map (fun (ss, _) -> lat_ms ss) ws));
      metric "peak_rss_mb" "MiB" s.rss_mb
    ] )

(* --- layer probes ----------------------------------------------------------------- *)

let codec_round_trip_ns served =
  let reps = List.length served in
  let (), ns =
    timed (fun () ->
        List.iter
          (fun s ->
            let line = Request.to_json s.req in
            ignore (Sys.opaque_identity (Request.of_line line));
            ignore (Sys.opaque_identity (Request.response_of_line (Request.response_to_json s.resp))))
          served)
  in
  float_of_int ns /. float_of_int (max 1 reps)

let queue_waits_ms path =
  match Trace.events_of_file path with
  | Error e -> die "trace %s: %s" path e
  | Ok evs ->
    List.filter_map
      (fun (e : Trace.ev) -> if e.Trace.ename = "serve.queue_wait" then Some (ms_of_ns e.Trace.edur_ns) else None)
      evs

(* A telemetry-on session of fixed length: readiness, worker compute,
   daemon overhead, the fork/pipe hop, the codec, queue waits from the
   merged trace, and the daemon's own failure counters. With two requests
   in flight on two workers nothing queues, so the session ends with one
   catalog cycle sent at once: the waits come from that burst. *)
let probe_cycles = 10

let probes ~seed () =
  Obs.set_enabled false;
  let dir = run_dir () in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () ->
      let d, _, ready_ms, warm = setup ~seed ~telemetry:true dir in
      let oracle = oracle () in
      let next = request_stream ~seed in
      let k = Array.length (entries ()) in
      let served, _ = drive d ~next:(fun i -> next (i + k)) ~count:(probe_cycles * k) ~budget_ns:max_int in
      let burst, _ =
        drive ~window:k d ~next:(fun i -> next (i + ((probe_cycles + 1) * k))) ~count:k ~budget_ns:max_int
      in
      let bad = List.fold_left (fun acc ss -> acc + check ~telemetry:true oracle ss) 0 [ warm; served; burst ] in
      if bad > 0 then die "serve probe: %d requests failed" bad;
      let stats = daemon_stats d in
      stop d;
      let compute s = snd (Hashtbl.find oracle (key_of s.req)) in
      let overhead = List.map (fun s -> ms_of_ns s.lat_ns -. compute s) served in
      let hop =
        List.filter_map
          (fun s -> if String.starts_with ~prefix:"pls_tree/" (key_of s.req) then Some (ms_of_ns s.lat_ns) else None)
          served
      in
      [ metric "serve.ready_ms" "ms" (median ready_ms);
        metric "serve.compute_ms" "ms" (median (List.map compute served));
        metric "serve.overhead_p50_ms" "ms" (median overhead);
        metric "serve.overhead_p99_ms" "ms" (quantile 0.99 overhead);
        metric "serve.hop_probe_ms" "ms" (median hop);
        metric "serve.codec_us" "us" (codec_round_trip_ns served /. 1e3);
        metric "serve.queue_wait_ms" "ms"
          (let w = queue_waits_ms (Filename.concat dir "trace.json") in
           sum w /. float_of_int (max 1 (List.length w)));
        metric "serve.retried" "count" (float_of_int (stat stats "retried"));
        metric "serve.worker_crashes" "count" (float_of_int (stat stats "worker_crashes"));
        metric "serve.shed" "count" (float_of_int (stat stats "shed"))
      ])

(* --- traced workload metrics ---------------------------------------------------------- *)

(* Half the budget with telemetry off, half with it on; then one cycle of
   the catalog replayed in-process with tracing on for the round spans. *)
let traced ~seed ~seconds =
  Obs.set_enabled false;
  let half = seconds * 500_000_000 in
  let run telemetry =
    let dir = run_dir () in
    Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> session ~seed ~telemetry ~budget_ns:half dir)
  in
  let off = run false in
  let on = run true in
  let minor, major = off.gc in
  (* In-process replay of one cycle, traced. *)
  let es = entries () in
  Obs.reset ();
  Obs.set_enabled true;
  let node_visits = ref 0 in
  Array.iter
    (fun (e : Catalog.entry) ->
      ignore (Catalog.execute e ~trials ~fault:Fault.none);
      node_visits := !node_visits + (trials * e.Catalog.n))
    es;
  Obs.set_enabled false;
  let st = self_times (Obs.spans ()) and snap = Obs.snapshot () in
  Obs.reset ();
  let k = float_of_int (Array.length es) in
  let per_op name = float_of_int (span_self st name) /. k in
  let bits name = float_of_int (Obs.counter_total snap name) /. float_of_int !node_visits in
  (* Layer table over the telemetry-off session's summed latencies. *)
  let lat_total = List.fold_left (fun acc s -> acc + s.lat_ns) 0 off.served in
  let compute_total =
    List.fold_left
      (fun acc s -> acc + int_of_float (snd (Hashtbl.find off.oracle (key_of s.req)) *. 1e6))
      0 off.served
  in
  let codec_total = int_of_float (codec_round_trip_ns off.served) * List.length off.served in
  let unattributed =
    layer_table ~workload:"serve_mix" ~wall_ns:lat_total
      [ ("serve.worker.compute (in-process replay)", compute_total); ("serve.codec (client side)", codec_total) ]
  in
  let fails s = failures ~bad:s.bad ~stats:s.stats ~count:(List.length s.served) in
  let count = List.length off.served + List.length on.served in
  let failed = fails off + fails on in
  ( count,
    failed,
    [ metric "net.challenge_ns_per_op" "ns" (per_op "net.challenge");
      metric "net.broadcast_ns_per_op" "ns" (per_op "net.broadcast");
      metric "net.unicast_ns_per_op" "ns" (per_op "net.unicast");
      metric "net.from_prover_bits_per_node" "bits" (bits "net.from_prover_bits");
      metric "net.to_prover_bits_per_node" "bits" (bits "net.to_prover_bits");
      metric "gc.minor_words_per_op" "words" (minor /. float_of_int (max 1 (List.length off.served)));
      metric "gc.major_collections" "count" (float_of_int major);
      metric "obs.trace_overhead_frac" "frac" (1. -. (window_ops on /. window_ops off));
      metric "failed_frac" "frac" (float_of_int failed /. float_of_int (max 1 count));
      metric "unattributed_frac" "frac" unattributed
    ] )
