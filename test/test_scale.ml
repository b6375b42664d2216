(* Scale-path contracts (the million-node PR).

   Four families of checks: (1) every Family/Graph generator builds the
   same graph on the dense and sparse backends; (2) pinned protocol
   estimates (dSym, PLS via the randomized labeling scheme, GNI, the
   eps-API hash) replay bit-identically across backend x worker-domain
   count; (3) the streamed Network folds are bit-identical to the array
   primitives, fault layer included; (4) the Apihash protocol itself —
   completeness, deterministic rejection of tampered advice, fault
   behavior — plus the committed BENCH_scale.json artifact's shape. *)

open Ids_graph
module Rng = Ids_bignum.Rng
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Cost = Ids_network.Cost
module Apihash = Ids_proof.Apihash
module Dsym = Ids_proof.Dsym
module Gni = Ids_proof.Gni
module Pls = Ids_proof.Pls
module Rpls = Ids_proof.Rpls
module Outcome = Ids_proof.Outcome
module Stats = Ids_proof.Stats
module Engine = Ids_engine.Engine

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- backend equivalence of generators ------------------------------------ *)

(* Each generator runs once per backend with a fresh identically-seeded rng:
   the repr hint must change the container only, never the draws or edges. *)
let generators =
  [ ("path", fun repr -> Graph.path ~repr 23);
    ("cycle", fun repr -> Graph.cycle ~repr 23);
    ("star", fun repr -> Graph.star ~repr 17);
    ("complete", fun repr -> Graph.complete ~repr 9);
    ("complete_bipartite", fun repr -> Graph.complete_bipartite ~repr 4 5);
    ("grid", fun repr -> Graph.grid ~repr 4 6);
    ("hypercube", fun repr -> Graph.hypercube ~repr 4);
    ("of_prufer", fun repr -> Graph.of_prufer ~repr [| 3; 3; 0; 1; 4 |]);
    ("random_tree", fun repr -> Graph.random_tree ~repr (Rng.create 3) 40);
    ("random_regular", fun repr -> Graph.random_regular ~repr (Rng.create 4) 12 3);
    ("random_gnp", fun repr -> Graph.random_gnp ~repr (Rng.create 5) 20 0.3);
    ("random_connected_gnp", fun repr -> Graph.random_connected_gnp ~repr (Rng.create 6) 20 0.15);
    ("expander", fun repr -> Family.expander ~repr (Rng.create 8) ~n:50 ~degree:6)
  ]

let test_generators_backend_equal () =
  List.iter
    (fun (name, build) ->
      let gd = build Graph.Dense and gs = build Graph.Sparse in
      checkb (name ^ " repr dense") true (Graph.repr gd = Graph.Dense);
      checkb (name ^ " repr sparse") true (Graph.repr gs = Graph.Sparse);
      checkb (name ^ " dense = sparse") true (Graph.equal gd gs);
      checkb (name ^ " sparse = dense") true (Graph.equal gs gd);
      checki (name ^ " edge count") (Graph.edge_count gd) (Graph.edge_count gs);
      checki (name ^ " max degree") (Graph.max_degree gd) (Graph.max_degree gs))
    generators

let test_with_repr_roundtrip () =
  let g = Family.expander (Rng.create 2) ~n:80 ~degree:4 in
  let there = Graph.with_repr Graph.Dense g in
  let back = Graph.with_repr Graph.Sparse there in
  checkb "sparse -> dense equal" true (Graph.equal g there);
  checkb "dense -> sparse equal" true (Graph.equal g back);
  checkb "mutation after conversion is independent" true
    (let h = Graph.with_repr Graph.Dense g in
     Graph.add_edge h 0 40;
     not (Graph.has_edge g 0 40));
  (* The satellite bugfix at the graph level: comparing graphs of
     different sizes answers false instead of raising from Bitset.equal. *)
  checkb "different n compares unequal" false (Graph.equal (Graph.path 3) (Graph.path 4))

let test_expander_shape () =
  let g = Family.expander (Rng.create 9) ~n:101 ~degree:6 in
  checkb "connected" true (Graph.is_connected g);
  checki "edge count nd/2" (101 * 6 / 2) (Graph.edge_count g);
  for v = 0 to 100 do
    checki "regular" 6 (Graph.degree g v)
  done;
  Alcotest.check_raises "odd degree rejected"
    (Invalid_argument "Family.expander: degree must be even and >= 2") (fun () ->
      ignore (Family.expander (Rng.create 1) ~n:10 ~degree:3))

(* --- pinned estimates: backend x domains ---------------------------------- *)

(* The rpls verdict wrapped as an outcome so the engine can drive it. *)
let rpls_outcome g advice seed =
  let v = Rpls.verify_sym ~seed g advice in
  { Outcome.accepted = v.Rpls.accepted;
    max_bits_per_node = v.Rpls.advice_bits_per_node;
    max_response_bits = v.Rpls.verification_bits_per_edge;
    total_bits = 0;
    prover = "rpls"
  }

(* (name, trials, pinned accepts, dense run, sparse run). The accept counts
   are exact pins: completeness of every run below is deterministic per
   seed, and the sparse backend must not move a single verdict. *)
let estimate_configs () =
  let dsym_graph = Family.dsym_graph (Graph.cycle 6) 2 in
  let dsym_d = Dsym.make_instance ~n:6 ~r:2 dsym_graph in
  let dsym_s = Dsym.make_instance ~n:6 ~r:2 (Graph.with_repr Graph.Sparse dsym_graph) in
  let gni_d = Gni.yes_instance (Rng.create 7) 6 in
  let gni_s =
    Gni.make_instance
      (Graph.with_repr Graph.Sparse gni_d.Gni.g0)
      (Graph.with_repr Graph.Sparse gni_d.Gni.g1)
  in
  let sym = Family.random_symmetric (Rng.create 5) 10 in
  let sym_s = Graph.with_repr Graph.Sparse sym in
  let adv_d = Option.get (Pls.Lcp_sym.honest sym) in
  let adv_s = Option.get (Pls.Lcp_sym.honest sym_s) in
  let exp_d = Family.expander ~repr:Graph.Dense (Rng.create 8) ~n:40 ~degree:4 in
  let exp_s = Family.expander ~repr:Graph.Sparse (Rng.create 8) ~n:40 ~degree:4 in
  [ ( "dsym_yes_n6",
      24,
      24,
      (fun seed -> Dsym.run ~seed dsym_d Dsym.honest),
      fun seed -> Dsym.run ~seed dsym_s Dsym.honest );
    ( "gni_yes6_single",
      12,
      1,
      (fun seed -> Gni.run_single ~seed gni_d Gni.honest),
      fun seed -> Gni.run_single ~seed gni_s Gni.honest );
    ("rpls_sym_n10", 12, 12, rpls_outcome sym adv_d, rpls_outcome sym_s adv_s);
    ( "apihash_expander40",
      10,
      10,
      (fun seed -> Apihash.run ~seed ~root:0 exp_d),
      fun seed -> Apihash.run ~seed ~root:0 exp_s )
  ]

let test_estimates_backend_domains () =
  List.iter
    (fun (name, trials, want_accepts, run_dense, run_sparse) ->
      List.iter
        (fun domains ->
          let ed = Stats.acceptance_ci ~domains ~trials run_dense in
          let es = Stats.acceptance_ci ~domains ~trials run_sparse in
          checki (Printf.sprintf "%s accepts (dense, domains=%d)" name domains) want_accepts
            ed.Engine.accepts;
          checkb (Printf.sprintf "%s estimate bit-identical (domains=%d)" name domains) true (ed = es))
        [ 1; 2; 4 ])
    (estimate_configs ())

(* --- changed-copy rounds = array primitives ---------------------------------- *)

(* The (node, copy) pairs at which an array round delivered something other
   than what was sent, in node order. *)
let changes_of ~sent delivered =
  List.filter_map
    (fun v -> if delivered.(v) <> sent v then Some (v, delivered.(v)) else None)
    (List.init (Array.length delivered) Fun.id)

let test_changes_match_arrays () =
  let g = Family.expander (Rng.create 12) ~n:60 ~degree:4 in
  List.iter
    (fun fault ->
      let tag = Fault.to_string fault in
      let ta = Network.create ~fault ~seed:99 g in
      let tf = Network.create ~fault ~seed:99 g in
      (* Challenge round: the kept draw matches the array form. *)
      let ca = Network.challenge ta ~bits:7 (fun rng -> Rng.bits rng 7) in
      let cf = Network.challenge_at tf ~bits:7 ~node:23 (fun rng -> Rng.bits rng 7) in
      checkb (tag ^ ": challenge draw equal") true (ca.(23) = cf);
      (* Unicast round with a corrupt hook and no on_drop. *)
      let payload = Array.init (Graph.n g) (fun v -> (v * 37) land 127) in
      let ua = Network.unicast ta ~corrupt:(Fault.flip_int_bit ~bits:7) ~bits:7 payload in
      let responded = ref 0 in
      let uc =
        Network.unicast_changes tf ~corrupt:(Fault.flip_int_bit ~bits:7) ~bits:7 (fun v ->
            incr responded;
            payload.(v))
      in
      checkb (tag ^ ": unicast changes = array deliveries <> sent") true
        (uc = changes_of ~sent:(Array.get payload) ua);
      if Fault.is_none fault then checki (tag ^ ": unfaulted round calls no respond") 0 !responded;
      (* Broadcast round (equivocation victim included). *)
      let ba = Network.broadcast_uniform ta ~corrupt:(Fault.flip_int_bit ~bits:9) ~bits:9 301 in
      let bc = Network.broadcast_changes tf ~corrupt:(Fault.flip_int_bit ~bits:9) ~bits:9 301 in
      checkb (tag ^ ": broadcast changes = array deliveries <> sent") true
        (bc = changes_of ~sent:(Fun.const 301) ba);
      checki (tag ^ ": round counters equal") (Network.current_round ta) (Network.current_round tf);
      checkb (tag ^ ": missed flags equal") true (Network.take_missed ta = Network.take_missed tf);
      checkb (tag ^ ": cost ledgers equal") true (Cost.equal (Network.cost ta) (Network.cost tf));
      checkb (tag ^ ": stream state equal") true
        (Rng.next_int64 (Network.rng ta) = Rng.next_int64 (Network.rng tf)))
    [ Fault.none;
      Fault.drop_only 0.2;
      Fault.corrupt_only 0.3;
      Fault.make ~drop:0.1 ~corrupt:0.1 ~crash:0.1 ~equivocate:true ()
    ]

(* --- the apihash protocol -------------------------------------------------- *)

let test_apihash_completeness () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let out = Apihash.run ~seed ~root:0 g in
          checkb (Printf.sprintf "%s seed=%d accepts" name seed) true out.Outcome.accepted)
        [ 1; 2; 3 ])
    [ ("petersen", Graph.petersen ());
      ("grid", Graph.grid 5 5);
      ("single", Graph.make 1);
      ("sparse expander", Family.expander (Rng.create 3) ~n:200 ~degree:4)
    ]

let test_apihash_epsilon_small () =
  let g = Graph.petersen () in
  let params = Apihash.params_for ~seed:1 g in
  checkb "eps < 1 at small n" true (Apihash.epsilon params ~n:(Graph.n g) < 1.0)

let test_apihash_soundness () =
  let g = Family.expander (Rng.create 4) ~n:64 ~degree:4 in
  List.iter
    (fun seed ->
      let wrong = Apihash.run ~prover:Apihash.adversary_wrong_claim ~seed ~root:0 g in
      checkb "wrong claim rejected" false wrong.Outcome.accepted;
      List.iter
        (fun node ->
          let bad = Apihash.run ~prover:(Apihash.adversary_corrupt_agg node) ~seed ~root:0 g in
          checkb (Printf.sprintf "corrupt agg at %d rejected" node) false bad.Outcome.accepted)
        [ 0; 17; 63 ])
    [ 1; 2 ]

let test_apihash_faults () =
  let g = Graph.grid 6 6 in
  let all_drop = Apihash.run ~fault:(Fault.drop_only 1.0) ~seed:5 ~root:0 g in
  checkb "total drop rejects" false all_drop.Outcome.accepted;
  let equiv = Apihash.run ~fault:Fault.equivocate_only ~seed:5 ~root:0 g in
  checkb "equivocation caught" false equiv.Outcome.accepted;
  let clean = Apihash.run ~fault:Fault.none ~seed:5 ~root:0 g in
  let bare = Apihash.run ~seed:5 ~root:0 g in
  checkb "zero-rate spec bit-identical" true (clean = bare)

(* Outcomes recorded with the per-node delivered-copy arrays the override
   tables replaced: every fault kind must give the same verdict and ledger.
   Rows are (fault, run seed, accepted, max bits/node, max response bits,
   total bits) on one 200-node sparse expander, root 0. *)
let apihash_fault_pins =
  let corrupt = Fault.corrupt_only and drop = Fault.drop_only and crash = Fault.crash_only in
  let vacuous = Fault.crash_only ~crash_mode:Fault.Crash_vacuous in
  [ (corrupt 0.001, 1, false, 98400); (corrupt 0.001, 2, false, 98400); (corrupt 0.001, 3, false, 98400);
    (corrupt 0.05, 1, false, 98400); (corrupt 0.05, 2, false, 98400); (corrupt 0.05, 3, false, 98400);
    (drop 0.001, 1, true, 98400); (drop 0.001, 2, false, 98400); (drop 0.001, 3, false, 98400);
    (drop 0.05, 1, false, 98400); (drop 0.05, 2, false, 98400); (drop 0.05, 3, false, 98400);
    (crash 0.001, 1, false, 97908); (crash 0.001, 2, true, 98400); (crash 0.001, 3, true, 98400);
    (crash 0.05, 1, false, 94956); (crash 0.05, 2, false, 92496); (crash 0.05, 3, false, 93972);
    (Fault.equivocate_only, 1, false, 98400); (Fault.equivocate_only, 2, false, 98400);
    (Fault.equivocate_only, 3, false, 98400);
    (vacuous 0.001, 1, true, 97908); (vacuous 0.001, 2, true, 98400); (vacuous 0.001, 3, true, 98400);
    (vacuous 0.05, 1, true, 94956); (vacuous 0.05, 2, true, 92496); (vacuous 0.05, 3, true, 93972)
  ]

let test_apihash_fault_pins () =
  let g = Family.expander ~repr:Graph.Sparse (Rng.create 3) ~n:200 ~degree:4 in
  List.iter
    (fun (fault, seed, accepted, total_bits) ->
      let want =
        { Outcome.accepted; max_bits_per_node = 492; max_response_bits = 310; total_bits; prover = "apihash" }
      in
      checkb
        (Printf.sprintf "%s seed=%d outcome pinned" (Fault.to_string fault) seed)
        true
        (Apihash.run ~fault ~seed ~root:0 g = want))
    apihash_fault_pins

(* The chunked passes against domain count and chunk size: on the fault
   pins' graph, every prover and fault kind gives one Outcome for
   domains 1, 2 and 4 (chunks of 16 nodes, so 13 ranges spread over the
   domains) and for the single default-size range. *)
let test_apihash_domain_invariance () =
  let g = Family.expander ~repr:Graph.Sparse (Rng.create 3) ~n:200 ~degree:4 in
  let vacuous = Fault.crash_only ~crash_mode:Fault.Crash_vacuous in
  let provers =
    [ ("honest", Apihash.honest);
      ("wrong claim", Apihash.adversary_wrong_claim);
      ("corrupt agg", Apihash.adversary_corrupt_agg 57)
    ]
  and faults =
    [ Fault.none; Fault.drop_only 0.05; Fault.corrupt_only 0.05; Fault.crash_only 0.05; vacuous 0.05;
      Fault.equivocate_only; Fault.make ~drop:0.01 ~corrupt:0.01 ~crash:0.02 ~equivocate:true ()
    ]
  in
  List.iter
    (fun (pname, prover) ->
      List.iter
        (fun fault ->
          List.iter
            (fun seed ->
              let want = Apihash.run ~fault ~prover ~seed ~root:0 g in
              List.iter
                (fun domains ->
                  checkb
                    (Printf.sprintf "%s, %s, seed %d: domains=%d" pname (Fault.to_string fault) seed domains)
                    true
                    (Apihash.run ~fault ~prover ~domains ~chunk:16 ~seed ~root:0 g = want))
                [ 1; 2; 4 ])
            [ 1; 2; 3 ])
        faults)
    provers;
  (* The default prover follows the run's domains and chunk. *)
  List.iter
    (fun domains ->
      checkb (Printf.sprintf "default prover, domains=%d" domains) true
        (Apihash.run ~domains ~chunk:7 ~seed:4 ~root:9 g = Apihash.run ~prover:Apihash.honest ~seed:4 ~root:9 g))
    [ 1; 2; 4 ];
  let params = Apihash.params_for ~seed:5 g in
  let spec = Ids_hash.Api.random_spec params.Apihash.field ~k:params.Apihash.copies (Rng.create 6) in
  let want = Apihash.honest_advice ~domains:1 params spec ~root:3 g in
  List.iter
    (fun (domains, chunk) ->
      checkb
        (Printf.sprintf "advice, domains=%d chunk=%d" domains chunk)
        true
        (Apihash.honest_advice ~domains ~chunk params spec ~root:3 g = want))
    [ (2, 16); (4, 16); (4, 1); (2, 199); (2, 200) ]

(* A prover whose label or aggregate array is too short is rejected, not
   an exception: the missing slots arrive as poisoned values. *)
let test_apihash_short_advice () =
  let g = Graph.path 6 in
  let truncated name cut =
    let prover : Apihash.prover =
     fun params spec ~root g -> cut (Apihash.honest params spec ~root g)
    in
    List.iter
      (fun seed ->
        let out = Apihash.run ~prover ~seed ~root:0 g in
        checkb (Printf.sprintf "short %s rejected (seed=%d)" name seed) false out.Outcome.accepted)
      [ 1; 2; 3 ]
  in
  truncated "parent" (fun a -> { a with Apihash.parent = Array.sub a.Apihash.parent 0 3 });
  truncated "dist" (fun a -> { a with Apihash.dist = Array.sub a.Apihash.dist 0 3 });
  truncated "agg" (fun a -> { a with Apihash.agg = Array.sub a.Apihash.agg 0 (Array.length a.Apihash.agg - 1) })

(* The honest advice against the per-copy oracle it replaced: k scalar
   aggregations of one-shot Api.row_term values (pow_int chains). *)
let oracle_advice (params : Apihash.params) spec ~root g =
  let n = Graph.n g and f = params.Apihash.field and k = params.Apihash.copies in
  let tree = Spanning_tree.bfs g root in
  let term v = Ids_hash.Api.row_term f spec ~n ~row:v (Graph.closed_neighborhood g v) in
  let per_copy =
    Array.init k (fun i -> Ids_proof.Aggregation.honest_sums f tree ~term:(fun v -> (term v).(i)))
  in
  { Apihash.root;
    parent = tree.Spanning_tree.parent;
    dist = tree.Spanning_tree.dist;
    agg = Array.init (n * k) (fun j -> per_copy.(j mod k).(j / k));
    claim = Ids_hash.Api.finalize f spec (Array.init k (fun i -> per_copy.(i).(root)))
  }

let test_apihash_advice_pin () =
  List.iter
    (fun (name, g, root) ->
      List.iter
        (fun k ->
          let params = Apihash.params_for ~k ~seed:k g in
          let spec = Ids_hash.Api.random_spec params.Apihash.field ~k (Rng.create (k + 40)) in
          checkb
            (Printf.sprintf "%s k=%d advice = oracle" name k)
            true
            (Apihash.honest_advice params spec ~root g = oracle_advice params spec ~root g))
        [ 1; 3 ])
    [ ("path", Graph.path 50, 17);
      ("star", Graph.star 40, 3);
      ("dense expander", Family.expander ~repr:Graph.Dense (Rng.create 21) ~n:60 ~degree:8, 0);
      (* n = 1000 puts q above 2^31: the int62 field. *)
      ("sparse expander", Family.expander ~repr:Graph.Sparse (Rng.create 22) ~n:1000 ~degree:4, 999)
    ]

let test_apihash_rejects_bad_root () =
  Alcotest.check_raises "root out of range" (Invalid_argument "Apihash.run: root out of range")
    (fun () -> ignore (Apihash.run ~seed:1 ~root:9 (Graph.path 3)))

(* --- committed benchmark artifact ------------------------------------------ *)

let test_bench_scale_shape () =
  let path =
    match List.find_opt Sys.file_exists [ "../BENCH_scale.json"; "BENCH_scale.json" ] with
    | Some p -> p
    | None -> Alcotest.fail "BENCH_scale.json not committed"
  in
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Ids_obs.Json.parse s with
  | Error e -> Alcotest.failf "BENCH_scale.json does not parse: %s" e
  | Ok j ->
    let mem k = Ids_obs.Json.member k j in
    let int_at k =
      match Option.bind (mem k) Ids_obs.Json.to_int with
      | Some v -> v
      | None -> Alcotest.failf "BENCH_scale.json: missing int %S" k
    in
    (* The committed artifact must witness the acceptance criteria: both
       protocols completed end-to-end at n = 10^6 with throughput and
       peak-RSS numbers present. *)
    checki "n is one million" 1_000_000 (int_at "n");
    checkb "full run, not smoke" true (mem "smoke" = Some (Ids_obs.Json.Bool false));
    List.iter
      (fun k -> if mem k = None then Alcotest.failf "BENCH_scale.json: missing %S" k)
      [ "degree"; "repr"; "graph_build_seconds"; "sparse6_bytes"; "pls_tree"; "apihash";
        "apihash_q"; "apihash_copies"; "apihash_domains"; "peak_rss_mb" ];
    List.iter
      (fun proto ->
        let sub k =
          match Option.bind (mem proto) (Ids_obs.Json.member k) with
          | Some v -> v
          | None -> Alcotest.failf "BENCH_scale.json: missing %s.%s" proto k
        in
        checkb (proto ^ " accepted") true (sub "accepted" = Ids_obs.Json.Bool true);
        match Ids_obs.Json.to_float (sub "nodes_per_sec") with
        | Some r -> checkb (proto ^ " nodes_per_sec positive") true (r > 0.)
        | None -> Alcotest.failf "BENCH_scale.json: %s.nodes_per_sec not a number" proto)
      [ "pls_tree"; "apihash" ]

let suite =
  [ ( "scale",
      [ Alcotest.test_case "generators equal across backends" `Quick test_generators_backend_equal;
        Alcotest.test_case "with_repr round-trip" `Quick test_with_repr_roundtrip;
        Alcotest.test_case "expander shape" `Quick test_expander_shape;
        Alcotest.test_case "estimates pinned across backend x domains" `Slow
          test_estimates_backend_domains;
        Alcotest.test_case "changed copies = array primitives" `Quick test_changes_match_arrays;
        Alcotest.test_case "apihash completeness" `Quick test_apihash_completeness;
        Alcotest.test_case "apihash eps < 1 at small n" `Quick test_apihash_epsilon_small;
        Alcotest.test_case "apihash rejects tampered advice" `Quick test_apihash_soundness;
        Alcotest.test_case "apihash under faults" `Quick test_apihash_faults;
        Alcotest.test_case "apihash fault outcomes pinned" `Quick test_apihash_fault_pins;
        Alcotest.test_case "apihash outcome independent of domains" `Quick test_apihash_domain_invariance;
        Alcotest.test_case "apihash rejects short advice" `Quick test_apihash_short_advice;
        Alcotest.test_case "apihash advice = per-copy oracle" `Quick test_apihash_advice_pin;
        Alcotest.test_case "apihash root validation" `Quick test_apihash_rejects_bad_root;
        Alcotest.test_case "BENCH_scale.json shape" `Quick test_bench_scale_shape
      ] )
  ]
