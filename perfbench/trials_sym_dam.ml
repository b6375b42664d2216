(* Workload trials_sym_dam: Monte Carlo estimates of Protocol 2
   (Sym_dam.run, Theorem 1.3) at n = 24 through Engine.run on two domains.
   Each iteration runs two estimates: the honest prover on a symmetric
   graph (every trial must accept) and the random-permutation adversary on
   an asymmetric graph (no trial may accept: a collision needs probability
   about n^2 / p with p near 2^125). An op is one trial. *)

open Kit
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Rng = Ids_bignum.Rng
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Engine = Ids_engine.Engine
module Sym_dam = Ids_proof.Sym_dam
module Precomp = Ids_proof.Precomp
module Stats = Ids_proof.Stats

let n = 24
let domains = 2
let trials = 1024
let pool = 8
let setup_reps = 9

(* One instance pair: a symmetric graph for the honest prover and an
   asymmetric one for the adversary, each with its own prime. *)
type pair = {
  sym : Graph.t;
  asym : Graph.t;
  sym_params : Sym_dam.params;
  asym_params : Sym_dam.params;
}

(* [pool] pairs, all from [seed]; trial [s] of an estimate runs on pair
   [s mod pool], so every estimate averages over graphs of different
   sizes. Setup also finds each symmetric graph's automorphism for the
   honest prover. *)
let build seed =
  Array.init pool (fun i ->
      let rng = Rng.create (Rng.key [ seed; 0x5e7; i ]) in
      let sym = Family.random_symmetric rng n in
      let asym = Family.random_asymmetric rng n in
      let p =
        { sym;
          asym;
          sym_params = Sym_dam.params_for ~seed:(Rng.key [ seed; i; 1 ]) sym;
          asym_params = Sym_dam.params_for ~seed:(Rng.key [ seed; i; 2 ]) asym
        }
      in
      ignore (Precomp.nontrivial_automorphism sym);
      p)

let setup seed = setup_median setup_reps (fun () -> build seed)

(* A window is one estimate: [trials] trials on [domains] domains, each
   trial timed into its own slot. *)
type window = { wall : int; lat_ms : float list; failed : int }

(* Windows alternate the honest estimate on the symmetric graphs (every
   trial must accept) and the adversary's on the asymmetric ones (none
   may); at least [min_iters] pairs of them. *)
let loop ?(honest = Sym_dam.honest) ?(adversary = Sym_dam.adversary_random_perm) ?max_count ~min_iters ~budget_ns
    ~seed inst =
  windows ?max_count ~min_clean:8 ~min_count:(2 * min_iters) ~budget_ns (fun i ->
      let is_honest = i mod 2 = 0 in
      let prover = if is_honest then honest else adversary in
      let lat = Array.make (trials + 1) 0 in
      let est, wall =
        timed (fun () ->
            Engine.run ~domains ~trials (fun s ->
                let p = inst.(s mod pool) in
                let g, params = if is_honest then (p.sym, p.sym_params) else (p.asym, p.asym_params) in
                let t0 = now_ns () in
                let o = Sym_dam.run ~params ~seed:(Rng.key [ seed; i; s ]) g prover in
                lat.(s) <- now_ns () - t0;
                Stats.trial_of_outcome o))
      in
      let accepts = est.Engine.accepts in
      { wall;
        lat_ms = List.map ms_of_ns (Array.to_list (Array.sub lat 1 trials));
        failed = (if is_honest then trials - accepts else accepts)
      })

let count ws = trials * List.length ws
let failed ws = List.fold_left (fun acc (_, w) -> acc + w.failed) 0 ws
let ops_per_s ws = float_of_int (count ws) /. s_of_ns (List.fold_left (fun acc (_, w) -> acc + w.wall) 0 ws)

(* The run reports the median clean window, so a stall confined to one
   window does not move the result. *)
let windowed ws f = median (List.map f ws)

let end_to_end ~seed ~seconds =
  Obs.set_enabled false;
  let inst, setup_s = setup seed in
  let r = loop ~min_iters:3 ~budget_ns:(seconds * 1_000_000_000) ~seed inst in
  note "trials_sym_dam: %d trials, %.1f trials/s" (count r) (ops_per_s r);
  let ws = clean_windows r in
  ( count r,
    failed r,
    [ metric "setup_s" "s" setup_s;
      metric "ops_per_s" "1/s" (windowed ws (fun w -> float_of_int trials /. s_of_ns w.wall));
      metric "p50_ms" "ms" (windowed ws (fun w -> median w.lat_ms));
      metric "p99_ms" "ms" (windowed ws (fun w -> quantile 0.99 w.lat_ms));
      metric "peak_rss_mb" "MiB" (self_peak_rss_mb ())
    ] )

(* --- layer probes ------------------------------------------------------------------ *)

(* A prover with a span around its response (the prover's share). *)
let spanned (p : Sym_dam.prover) =
  { p with Sym_dam.respond = (fun params g ch -> Obs.span "bench.sym_dam.respond" (fun () -> p.Sym_dam.respond params g ch)) }

let probes ~seed () =
  Obs.set_enabled false;
  let inst = build seed in
  let g = inst.(0).sym and params = inst.(0).sym_params in
  let f = params.Sym_dam.field in
  (* Prime draws: timed untraced, then counted traced. *)
  let draws = 8 in
  let draw i () = ignore (Sym_dam.params_for ~seed:(Rng.key [ seed; 0xd4a; i ]) g) in
  let draw_ms = median (List.init draws (fun i -> ms_of_ns (snd (timed (draw i))))) in
  Obs.reset ();
  Obs.set_enabled true;
  List.iter (fun i -> draw i ()) (List.init draws Fun.id);
  Obs.set_enabled false;
  let ps = Obs.snapshot () in
  Obs.reset ();
  let per_draw name = float_of_int (Obs.counter_total ps name) /. float_of_int draws in
  let rng = Rng.create (Rng.key [ seed; 0xf1e ]) in
  let x0 = f.Field.random rng in
  let mul_reps = 200_000 in
  let (), mul_ns =
    timed (fun () ->
        let x = ref x0 in
        for _ = 1 to mul_reps do
          x := f.Field.mul !x x0
        done;
        ignore (Sys.opaque_identity !x))
  in
  let m = (n * n) + n in
  let powers_ns = median_ns 9 (fun () -> ignore (Linear.powers f x0 m)) in
  let pows = Linear.powers f x0 m in
  let row_reps = 200 in
  let (), row_ns =
    timed (fun () ->
        for _ = 1 to row_reps do
          for v = 0 to n - 1 do
            ignore (Sys.opaque_identity (Linear.row_hash_pow f ~powers:pows ~n ~row:v (Graph.closed_neighborhood g v)))
          done
        done)
  in
  let challenges = Array.init n (fun _ -> f.Field.random rng) in
  let respond_ns = median_ns 21 (fun () -> ignore (Sym_dam.honest.Sym_dam.respond params g challenges)) in
  let auto_ns = median_ns 5 (fun () -> ignore (Precomp.nontrivial_automorphism (Graph.copy g))) in
  (* Engine: one traced two-domain estimate of the honest prover. *)
  let engine_trials = 512 in
  let busy = Array.make (engine_trials + 1) 0 in
  Obs.reset ();
  Obs.set_enabled true;
  let est, wall =
    timed (fun () ->
        Engine.run ~domains ~trials:engine_trials (fun s ->
            let t0 = now_ns () in
            let o = Sym_dam.run ~params ~seed:(Rng.key [ seed; 0xe9; s ]) g Sym_dam.honest in
            busy.(s) <- now_ns () - t0;
            Stats.trial_of_outcome o))
  in
  Obs.set_enabled false;
  if est.Engine.accepts <> engine_trials then die "engine probe: honest prover rejected";
  let es = Obs.snapshot () and spans = Obs.spans () in
  Obs.reset ();
  let chunks =
    List.filter_map
      (fun (s : Obs.span_record) -> if s.sname = "scheduler.chunk" then Some (ms_of_ns s.dur_ns) else None)
      spans
  in
  let hit_frac name =
    let h = Obs.counter_total es (name ^ ".hit") and mi = Obs.counter_total es (name ^ ".miss") in
    float_of_int h /. float_of_int (max 1 (h + mi))
  in
  let per_trial name = float_of_int (Obs.counter_total es name) /. float_of_int engine_trials in
  let cand = Obs.counter_total ps "prime.candidates" in
  [ metric "bignum.prime_draw_ms" "ms" draw_ms;
    metric "bignum.nat_mulmod_ns" "ns" (float_of_int mul_ns /. float_of_int mul_reps);
    metric "prime.candidates" "count" (per_draw "prime.candidates");
    metric "prime.sieve_reject_frac" "frac"
      (float_of_int (Obs.counter_total ps "prime.sieve_reject") /. float_of_int (max 1 cand));
    metric "prime.mr_rounds" "count" (per_draw "prime.mr_rounds");
    metric "mont.pow_per_trial" "count" (per_trial "mont.pow");
    metric "mont.redc_per_trial" "count" (per_trial "mont.redc");
    metric "hash.powers_ms" "ms" (powers_ns /. 1e6);
    metric "hash.row_hash_pow_us" "us" (float_of_int row_ns /. 1e3 /. float_of_int (row_reps * n));
    metric "proof.sym_dam.respond_ms" "ms" (respond_ns /. 1e6);
    metric "proof.precomp.automorphism_ms" "ms" (auto_ns /. 1e6);
    metric "engine.busy_frac" "frac"
      (float_of_int (Array.fold_left ( + ) 0 busy) /. float_of_int (domains * wall));
    metric "scheduler.chunk_count" "count" (float_of_int (List.length chunks));
    metric "scheduler.chunk_p50_ms" "ms" (median chunks);
    metric "memo.bfs.hit_frac" "frac" (hit_frac "memo.bfs");
    metric "memo.automorphism.hit_frac" "frac" (hit_frac "memo.automorphism")
  ]

(* --- traced workload metrics --------------------------------------------------------- *)

let traced_iters = 2

let traced ~seed ~inst =
  Obs.set_enabled false;
  let gc0 = gc_mark () in
  let plain = loop ~min_iters:traced_iters ~max_count:(2 * traced_iters) ~budget_ns:0 ~seed inst in
  let minor, major = gc_since gc0 in
  Obs.reset ();
  Obs.set_enabled true;
  let tr, tr_wall =
    timed (fun () ->
        loop ~honest:(spanned Sym_dam.honest) ~adversary:(spanned Sym_dam.adversary_random_perm)
          ~min_iters:traced_iters ~max_count:(2 * traced_iters) ~budget_ns:0 ~seed inst)
  in
  Obs.set_enabled false;
  let st = self_times (Obs.spans ()) and snap = Obs.snapshot () in
  Obs.reset ();
  let ops = float_of_int (count tr) in
  let per_op name = float_of_int (span_self st name) /. ops in
  let node_visits = ops *. float_of_int n in
  (* Capacity is domains x wall: idle domain time lands in unattributed. *)
  let unattributed =
    layer_table ~workload:"trials_sym_dam" ~wall_ns:(domains * tr_wall)
      [ ("proof.sym_dam.prover", span_self st "bench.sym_dam.respond");
        ("net.challenge", span_self st "net.challenge");
        ("net.broadcast", span_self st "net.broadcast");
        ("net.unicast", span_self st "net.unicast");
        ("proof.sym_dam.run (decide)", span_self st "sym_dam.run");
        ("engine.scheduler.chunk", span_self st "scheduler.chunk")
      ]
  in
  let fails = failed plain + failed tr in
  ( count plain + count tr,
    fails,
    [ metric "net.challenge_ns_per_op" "ns" (per_op "net.challenge");
      metric "net.broadcast_ns_per_op" "ns" (per_op "net.broadcast");
      metric "net.unicast_ns_per_op" "ns" (per_op "net.unicast");
      metric "net.from_prover_bits_per_node" "bits"
        (float_of_int (Obs.counter_total snap "net.from_prover_bits") /. node_visits);
      metric "net.to_prover_bits_per_node" "bits"
        (float_of_int (Obs.counter_total snap "net.to_prover_bits") /. node_visits);
      (* Gc.quick_stat counts the main domain's minor heap only. *)
      metric "gc.minor_words_per_op" "words" (minor /. float_of_int (count plain));
      metric "gc.major_collections" "count" (float_of_int major /. float_of_int traced_iters);
      metric "obs.trace_overhead_frac" "frac" (1. -. (ops_per_s tr /. ops_per_s plain));
      metric "failed_frac" "frac" (float_of_int fails /. float_of_int (count plain + count tr));
      metric "unattributed_frac" "frac" unattributed
    ] )
