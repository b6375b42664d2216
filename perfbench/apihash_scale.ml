(* Workload apihash_scale: the Section 4 eps-API hash (Apihash.run) on a
   2^18-node, degree-4 sparse expander. An op is one verified node; every
   run must accept, and a repeated run seed must give the same Outcome. *)

open Kit
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Spanning_tree = Ids_graph.Spanning_tree
module Rng = Ids_bignum.Rng
module Field = Ids_hash.Field
module Api = Ids_hash.Api
module Apihash = Ids_proof.Apihash
module Outcome = Ids_proof.Outcome

let n = 1 lsl 18
let degree = 4
let setup_reps = 3
let min_runs = 3

let build_graph seed = Family.expander ~repr:Graph.Sparse (Rng.create (Rng.key [ seed; 0x5ca1e ])) ~n ~degree
let root_of seed = Rng.int (Rng.create (Rng.key [ seed; 0x2007 ])) n

(* Run seeds alternate between two values, so every third run repeats an
   earlier seed and its Outcome can be compared. *)
let run_seed seed i = Rng.key [ seed; 0xa91; i mod 2 ]

let setup seed = setup_median setup_reps (fun () -> build_graph seed)

(* Span around the prover, so a traced run can split prover from verifier. *)
let traced_prover : Apihash.prover =
 fun params spec ~root g -> Obs.span "bench.apihash.prover" (fun () -> Apihash.honest params spec ~root g)

(* One run is a window: its time in ms and whether it was correct. *)
type run = { ms : float; ok : bool }

let loop ?(prover = Apihash.honest) ?max_count ~min_count ~budget_ns ~seed g =
  let root = root_of seed in
  let seen = Hashtbl.create 4 in
  windows ?max_count ~min_clean:min_count ~min_count ~budget_ns (fun i ->
      let rs = run_seed seed i in
      let (o : Outcome.t), ns = timed (fun () -> Apihash.run ~prover ~seed:rs ~root g) in
      let same =
        match Hashtbl.find_opt seen rs with
        | Some o' -> o' = o
        | None ->
          Hashtbl.add seen rs o;
          true
      in
      { ms = ms_of_ns ns; ok = o.Outcome.accepted && same })

let failed runs = List.length (List.filter (fun (_, r) -> not r.ok) runs)
let ops_per_s runs = float_of_int (List.length runs * n) /. (sum (List.map (fun (_, r) -> r.ms) runs) /. 1e3)

let end_to_end ~seed ~seconds =
  Obs.set_enabled false;
  let g, setup_s = setup seed in
  let runs = loop ~min_count:min_runs ~budget_ns:(seconds * 1_000_000_000) ~seed g in
  let times = List.map (fun r -> r.ms) (clean_windows runs) in
  let p50 = median times in
  note "apihash_scale: %d runs of n = %d, median %.1f ms" (List.length runs) n p50;
  ( List.length runs * n,
    failed runs * n,
    [ metric "setup_s" "s" setup_s;
      (* Each run is a window: nodes per second of the median run. *)
      metric "ops_per_s" "1/s" (float_of_int n /. (p50 /. 1e3));
      metric "p50_ms" "ms" p50;
      (* Too few runs for a true 99th percentile: the slowest run. *)
      metric "p99_ms" "ms" (List.fold_left max 0. times);
      metric "peak_rss_mb" "MiB" (self_peak_rss_mb ())
    ] )

(* --- layer probes ---------------------------------------------------------------- *)

(* Per-layer metrics of the scale path, on this workload's graph and its
   build time. *)
let probes ~graph:(g, build_s) ~seed () =
  Obs.set_enabled false;
  let root = root_of seed in
  let bfs_ns = median_ns 5 (fun () -> ignore (Spanning_tree.bfs g root)) in
  let (), sweep_ns =
    timed (fun () ->
        for v = 0 to n - 1 do
          ignore (Sys.opaque_identity (Graph.closed_neighborhood g v))
        done)
  in
  let params, params_ns = timed (fun () -> Apihash.params_for ~seed:(run_seed seed 0) g) in
  let f = params.Apihash.field in
  let mulmod_reps = 1_000_000 in
  let x0 = f.Field.of_int (root + 2) in
  let (), mul_ns =
    timed (fun () ->
        let x = ref x0 in
        for _ = 1 to mulmod_reps do
          x := f.Field.mul !x x0
        done;
        ignore (Sys.opaque_identity !x))
  in
  let spec = Api.random_spec f ~k:params.Apihash.copies (Rng.create seed) in
  let rows = 16384 in
  let nbhd = Array.init rows (fun v -> Graph.closed_neighborhood g v) in
  let (), row_ns =
    timed (fun () ->
        for v = 0 to rows - 1 do
          ignore (Sys.opaque_identity (Api.row_term f spec ~n ~row:v nbhd.(v)))
        done)
  in
  (* One traced run: the prover span, the round spans and the run span. *)
  Obs.reset ();
  Obs.set_enabled true;
  let o = Apihash.run ~prover:traced_prover ~seed:(run_seed seed 0) ~root g in
  Obs.set_enabled false;
  if not o.Outcome.accepted then die "apihash probe run rejected";
  let st = self_times (Obs.spans ()) in
  Obs.reset ();
  let prover_ns = span_total st "bench.apihash.prover" in
  let run_ns = span_total st "apihash.run" in
  [ metric "graph.build_s" "s" build_s;
    metric "graph.bfs_ms" "ms" (bfs_ns /. 1e6);
    metric "graph.closed_nbhd_ns" "ns" (float_of_int sweep_ns /. float_of_int n);
    metric "bignum.int62_mulmod_ns" "ns" (float_of_int mul_ns /. float_of_int mulmod_reps);
    metric "hash.row_term_us" "us" (float_of_int row_ns /. 1e3 /. float_of_int rows);
    metric "proof.apihash.prover_s" "s" (s_of_ns prover_ns);
    metric "proof.apihash.rest_s" "s" (s_of_ns (run_ns - prover_ns));
    (* Decide has no span: the run's self time less the parameter draw. *)
    metric "net.decide_ms" "ms" (ms_of_ns (span_self st "apihash.run" - params_ns))
  ]

(* --- traced workload metrics --------------------------------------------------------- *)

(* Two untraced runs, then the same two run seeds traced: overhead, GC
   per op, round self times, bit counters and the layer table. *)
let traced ~seed ~graph:(g, _) =
  Obs.set_enabled false;
  let gc0 = gc_mark () in
  let plain = loop ~min_count:2 ~max_count:2 ~budget_ns:0 ~seed g in
  let minor, major = gc_since gc0 in
  Obs.reset ();
  Obs.set_enabled true;
  let tr, tr_wall = timed (fun () -> loop ~prover:traced_prover ~min_count:2 ~max_count:2 ~budget_ns:0 ~seed g) in
  Obs.set_enabled false;
  let st = self_times (Obs.spans ()) and snap = Obs.snapshot () in
  Obs.reset ();
  let ops = float_of_int (List.length tr * n) in
  let per_op name = float_of_int (span_self st name) /. ops in
  let unattributed =
    layer_table ~workload:"apihash_scale" ~wall_ns:tr_wall
      [ ("proof.apihash.prover", span_self st "bench.apihash.prover");
        ("net.challenge", span_self st "net.challenge");
        ("net.broadcast", span_self st "net.broadcast");
        ("net.unicast", span_self st "net.unicast");
        ("proof.apihash.run (decide, params)", span_self st "apihash.run")
      ]
  in
  let count = List.length plain + List.length tr and fails = failed plain + failed tr in
  ( count * n,
    fails * n,
    [ metric "net.challenge_ns_per_op" "ns" (per_op "net.challenge");
      metric "net.broadcast_ns_per_op" "ns" (per_op "net.broadcast");
      metric "net.unicast_ns_per_op" "ns" (per_op "net.unicast");
      metric "net.from_prover_bits_per_node" "bits"
        (float_of_int (Obs.counter_total snap "net.from_prover_bits") /. ops);
      metric "net.to_prover_bits_per_node" "bits" (float_of_int (Obs.counter_total snap "net.to_prover_bits") /. ops);
      metric "gc.minor_words_per_op" "words" (minor /. float_of_int (List.length plain * n));
      metric "gc.major_collections" "count" (float_of_int major /. float_of_int (List.length plain));
      metric "obs.trace_overhead_frac" "frac" (1. -. (ops_per_s tr /. ops_per_s plain));
      metric "failed_frac" "frac" (float_of_int fails /. float_of_int count);
      metric "unattributed_frac" "frac" unattributed
    ] )
