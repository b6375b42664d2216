(* Full-outcome pins for the three Goldwasser–Sipser protocols (Gni,
   Gni_full, Gni_induced), captured when each still had its own
   implementation, so they hold the shared Gs core to the originals. Every
   field of Outcome.t is pinned — verdict, per-node and total bit charges,
   prover name — so a change in the message schedule, a bit charge, a seed
   salt or a bound moves a pin even when acceptance does not. The faulted
   Gni pins hold its round order under every fault kind. *)

open Ids_proof
module Rng = Ids_bignum.Rng
module Fault = Ids_network.Fault
module Graph = Ids_graph.Graph

let show (o : Outcome.t) =
  Printf.sprintf "%b %d %d %d %s" o.Outcome.accepted o.Outcome.max_bits_per_node
    o.Outcome.max_response_bits o.Outcome.total_bits o.Outcome.prover

let gni_yes = lazy (Gni.yes_instance (Rng.create 7) 6)
let gni_no = lazy (Gni.no_instance (Rng.create 7) 6)
let full_yes = lazy (Gni_full.yes_instance (Rng.create 7) 6)
let full_no = lazy (Gni_full.no_instance (Rng.create 7) 6)
let induced_yes = lazy (Gni_induced.yes_instance (Rng.create 7) 10)
let induced_no = lazy (Gni_induced.no_instance (Rng.create 7) 10)

(* Labelled outcomes, in the order of [pins]. *)
let outcomes () =
  let side yes = if yes then "yes" else "no" in
  let sides y n = [ (true, Lazy.force y); (false, Lazy.force n) ] in
  let acc = ref [] in
  let add label o = acc := (label, show o) :: !acc in
  for seed = 1 to 6 do
    List.iter
      (fun (yes, inst) ->
        List.iter
          (fun (name, p) ->
            add (Printf.sprintf "gni %s %s seed=%d" (side yes) name seed) (Gni.run_single ~seed inst p))
          [ ("honest", Gni.honest);
            ("forge-aggregates", Gni.adversary_forge_aggregates);
            ("biased-hash", Gni.adversary_biased_hash)
          ])
      (sides gni_yes gni_no);
    List.iter
      (fun (yes, inst) ->
        List.iter
          (fun (name, p) ->
            add (Printf.sprintf "gni_full %s %s seed=%d" (side yes) name seed) (Gni_full.run_single ~seed inst p))
          [ ("honest", Gni_full.honest); ("fake-automorphism", Gni_full.adversary_fake_automorphism) ])
      (sides full_yes full_no);
    List.iter
      (fun (yes, inst) ->
        add
          (Printf.sprintf "gni_induced %s honest seed=%d" (side yes) seed)
          (Gni_induced.run_single ~seed inst Gni_induced.honest))
      (sides induced_yes induced_no)
  done;
  for seed = 1 to 3 do
    List.iter
      (fun (fname, fault) ->
        List.iter
          (fun (name, p) ->
            add
              (Printf.sprintf "gni yes %s %s seed=%d" fname name seed)
              (Gni.run_single ~fault ~seed (Lazy.force gni_yes) p))
          [ ("honest", Gni.honest); ("forge-aggregates", Gni.adversary_forge_aggregates) ])
      [ ("drop=0.1", Fault.drop_only 0.1);
        ("corrupt=0.3", Fault.corrupt_only 0.3);
        ("equivocate", Fault.equivocate_only);
        ("crash=0.2", Fault.crash_only 0.2)
      ]
  done;
  List.iter
    (fun (yes, inst) ->
      let params = Gni.params_for ~repetitions:50 ~seed:1 inst in
      add (Printf.sprintf "gni run %s" (side yes)) (Gni.run ~params ~seed:1 inst Gni.honest))
    (sides gni_yes gni_no);
  List.iter
    (fun (yes, inst) ->
      let params = Gni_full.params_for ~repetitions:50 ~seed:1 inst in
      add (Printf.sprintf "gni_full run %s" (side yes)) (Gni_full.run ~params ~seed:1 inst Gni_full.honest))
    (sides full_yes full_no);
  List.iter
    (fun (yes, inst) ->
      let params = Gni_induced.params_for ~repetitions:50 ~seed:1 inst in
      add
        (Printf.sprintf "gni_induced run %s" (side yes))
        (Gni_induced.run ~params ~seed:1 inst Gni_induced.honest))
    (sides induced_yes induced_no);
  List.rev !acc

(* (label, accepted, max_bits_per_node, max_response_bits, total_bits, prover) *)
let pins =
  [
    ("gni yes honest seed=1", false, 293, 185, 1758, "honest");
    ("gni yes forge-aggregates seed=1", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes biased-hash seed=1", false, 293, 185, 1758, "adversary:biased-hash");
    ("gni no honest seed=1", false, 293, 185, 1758, "honest");
    ("gni no forge-aggregates seed=1", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni no biased-hash seed=1", false, 293, 185, 1758, "adversary:biased-hash");
    ("gni_full yes honest seed=1", true, 346, 229, 2076, "honest");
    ("gni_full yes fake-automorphism seed=1", true, 346, 229, 2076, "adversary:fake-automorphism");
    ("gni_full no honest seed=1", true, 346, 229, 2076, "honest");
    ("gni_full no fake-automorphism seed=1", true, 346, 229, 2076, "adversary:fake-automorphism");
    ("gni_induced yes honest seed=1", false, 439, 304, 4390, "honest");
    ("gni_induced no honest seed=1", false, 439, 304, 4390, "honest");
    ("gni yes honest seed=2", false, 293, 185, 1758, "honest");
    ("gni yes forge-aggregates seed=2", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes biased-hash seed=2", false, 293, 185, 1758, "adversary:biased-hash");
    ("gni no honest seed=2", false, 293, 185, 1758, "honest");
    ("gni no forge-aggregates seed=2", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni no biased-hash seed=2", false, 293, 185, 1758, "adversary:biased-hash");
    ("gni_full yes honest seed=2", false, 323, 215, 1938, "honest");
    ("gni_full yes fake-automorphism seed=2", false, 323, 215, 1938, "adversary:fake-automorphism");
    ("gni_full no honest seed=2", false, 323, 215, 1938, "honest");
    ("gni_full no fake-automorphism seed=2", false, 323, 215, 1938, "adversary:fake-automorphism");
    ("gni_induced yes honest seed=2", false, 462, 318, 4620, "honest");
    ("gni_induced no honest seed=2", false, 462, 318, 4620, "honest");
    ("gni yes honest seed=3", true, 293, 185, 1758, "honest");
    ("gni yes forge-aggregates seed=3", true, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes biased-hash seed=3", false, 293, 185, 1758, "adversary:biased-hash");
    ("gni no honest seed=3", false, 293, 185, 1758, "honest");
    ("gni no forge-aggregates seed=3", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni no biased-hash seed=3", false, 293, 185, 1758, "adversary:biased-hash");
    ("gni_full yes honest seed=3", true, 346, 229, 2076, "honest");
    ("gni_full yes fake-automorphism seed=3", true, 346, 229, 2076, "adversary:fake-automorphism");
    ("gni_full no honest seed=3", true, 346, 229, 2076, "honest");
    ("gni_full no fake-automorphism seed=3", true, 346, 229, 2076, "adversary:fake-automorphism");
    ("gni_induced yes honest seed=3", false, 439, 304, 4390, "honest");
    ("gni_induced no honest seed=3", false, 439, 304, 4390, "honest");
    ("gni yes honest seed=4", false, 315, 198, 1890, "honest");
    ("gni yes forge-aggregates seed=4", false, 315, 198, 1890, "adversary:forge-aggregates");
    ("gni yes biased-hash seed=4", false, 315, 198, 1890, "adversary:biased-hash");
    ("gni no honest seed=4", false, 315, 198, 1890, "honest");
    ("gni no forge-aggregates seed=4", false, 315, 198, 1890, "adversary:forge-aggregates");
    ("gni no biased-hash seed=4", false, 315, 198, 1890, "adversary:biased-hash");
    ("gni_full yes honest seed=4", false, 346, 229, 2076, "honest");
    ("gni_full yes fake-automorphism seed=4", false, 346, 229, 2076, "adversary:fake-automorphism");
    ("gni_full no honest seed=4", false, 346, 229, 2076, "honest");
    ("gni_full no fake-automorphism seed=4", false, 346, 229, 2076, "adversary:fake-automorphism");
    ("gni_induced yes honest seed=4", true, 439, 304, 4390, "honest");
    ("gni_induced no honest seed=4", true, 439, 304, 4390, "honest");
    ("gni yes honest seed=5", false, 293, 185, 1758, "honest");
    ("gni yes forge-aggregates seed=5", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes biased-hash seed=5", false, 293, 185, 1758, "adversary:biased-hash");
    ("gni no honest seed=5", false, 293, 185, 1758, "honest");
    ("gni no forge-aggregates seed=5", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni no biased-hash seed=5", false, 293, 185, 1758, "adversary:biased-hash");
    ("gni_full yes honest seed=5", false, 323, 215, 1938, "honest");
    ("gni_full yes fake-automorphism seed=5", false, 323, 215, 1938, "adversary:fake-automorphism");
    ("gni_full no honest seed=5", false, 323, 215, 1938, "honest");
    ("gni_full no fake-automorphism seed=5", false, 323, 215, 1938, "adversary:fake-automorphism");
    ("gni_induced yes honest seed=5", false, 462, 318, 4620, "honest");
    ("gni_induced no honest seed=5", false, 462, 318, 4620, "honest");
    ("gni yes honest seed=6", false, 315, 198, 1890, "honest");
    ("gni yes forge-aggregates seed=6", false, 315, 198, 1890, "adversary:forge-aggregates");
    ("gni yes biased-hash seed=6", false, 315, 198, 1890, "adversary:biased-hash");
    ("gni no honest seed=6", false, 315, 198, 1890, "honest");
    ("gni no forge-aggregates seed=6", false, 315, 198, 1890, "adversary:forge-aggregates");
    ("gni no biased-hash seed=6", false, 315, 198, 1890, "adversary:biased-hash");
    ("gni_full yes honest seed=6", false, 346, 229, 2076, "honest");
    ("gni_full yes fake-automorphism seed=6", false, 346, 229, 2076, "adversary:fake-automorphism");
    ("gni_full no honest seed=6", false, 346, 229, 2076, "honest");
    ("gni_full no fake-automorphism seed=6", false, 346, 229, 2076, "adversary:fake-automorphism");
    ("gni_induced yes honest seed=6", true, 439, 304, 4390, "honest");
    ("gni_induced no honest seed=6", true, 439, 304, 4390, "honest");
    ("gni yes drop=0.1 honest seed=1", false, 293, 185, 1758, "honest");
    ("gni yes drop=0.1 forge-aggregates seed=1", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes corrupt=0.3 honest seed=1", false, 293, 185, 1758, "honest");
    ("gni yes corrupt=0.3 forge-aggregates seed=1", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes equivocate honest seed=1", false, 293, 185, 1758, "honest");
    ("gni yes equivocate forge-aggregates seed=1", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes crash=0.2 honest seed=1", false, 293, 185, 1465, "honest");
    ("gni yes crash=0.2 forge-aggregates seed=1", false, 293, 185, 1465, "adversary:forge-aggregates");
    ("gni yes drop=0.1 honest seed=2", false, 293, 185, 1758, "honest");
    ("gni yes drop=0.1 forge-aggregates seed=2", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes corrupt=0.3 honest seed=2", false, 293, 185, 1758, "honest");
    ("gni yes corrupt=0.3 forge-aggregates seed=2", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes equivocate honest seed=2", false, 293, 185, 1758, "honest");
    ("gni yes equivocate forge-aggregates seed=2", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes crash=0.2 honest seed=2", false, 293, 185, 1758, "honest");
    ("gni yes crash=0.2 forge-aggregates seed=2", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes drop=0.1 honest seed=3", false, 293, 185, 1758, "honest");
    ("gni yes drop=0.1 forge-aggregates seed=3", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes corrupt=0.3 honest seed=3", false, 293, 185, 1758, "honest");
    ("gni yes corrupt=0.3 forge-aggregates seed=3", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes equivocate honest seed=3", false, 293, 185, 1758, "honest");
    ("gni yes equivocate forge-aggregates seed=3", false, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni yes crash=0.2 honest seed=3", true, 293, 185, 1758, "honest");
    ("gni yes crash=0.2 forge-aggregates seed=3", true, 293, 185, 1758, "adversary:forge-aggregates");
    ("gni run yes", true, 14650, 9250, 87900, "honest");
    ("gni run no", false, 14650, 9250, 87900, "honest");
    ("gni_full run yes", true, 17300, 11450, 103800, "honest");
    ("gni_full run no", false, 17300, 11450, 103800, "honest");
    ("gni_induced run yes", false, 21950, 15200, 219500, "honest");
    ("gni_induced run no", false, 21950, 15200, 219500, "honest")
  ]

let test_outcome_pins () =
  let got = outcomes () in
  Alcotest.(check int) "pin count" (List.length pins) (List.length got);
  List.iter2
    (fun (label, accepted, max_bits, max_resp, total, prover) (got_label, got_outcome) ->
      Alcotest.(check string) "label order" label got_label;
      Alcotest.(check string) label (Printf.sprintf "%b %d %d %d %s" accepted max_bits max_resp total prover)
        got_outcome)
    pins got

(* Single-repetition Gni hits over seeds 1..60 under each fault kind. *)
let test_fault_count_pins () =
  let inst = Lazy.force gni_yes in
  List.iter
    (fun (name, fault, want) ->
      let hits = ref 0 in
      for seed = 1 to 60 do
        if (Gni.run_single ~fault ~seed inst Gni.honest).Outcome.accepted then incr hits
      done;
      Alcotest.(check int) ("gni hits under " ^ name) want !hits)
    [ ("none", Fault.none, 14);
      ("drop=0.01", Fault.drop_only 0.01, 9);
      ("corrupt=0.1", Fault.corrupt_only 0.1, 1);
      ("equivocate", Fault.equivocate_only, 0)
    ]

(* Every node requires each broadcast witness table to be a permutation.
   In Gni_induced, alpha off the committed class enters neither the hashed
   rows nor the Lemma 3.1 audit, so the permutation check alone rejects the
   honest alpha with its off-class entries collapsed to 0: a check of
   length and range would accept it exactly as often as the honest prover.
   Both that table and a constant one must be rejected on every repetition,
   including the ones the honest prover wins. *)
let test_induced_rejects_non_permutation_alpha () =
  let inst = Lazy.force induced_yes in
  let params = Gni_induced.params_for ~seed:2 inst in
  let honest = Gni_induced.honest in
  let with_alpha name alpha_of =
    { honest with
      Gs.name;
      commit =
        (fun params inst ch ->
          let c = honest.Gs.commit params inst ch in
          match c.Gs.tables with
          | [ psi; alpha ] ->
            let b = c.Gs.b.(0) in
            { c with tables = [ psi; Array.map (alpha_of b) alpha ] }
          | _ -> Alcotest.fail "induced witness has two tables")
    }
  in
  let off_class b alpha = Array.mapi (fun u a -> if inst.Gni_induced.marks.(u) = b then a else 0) alpha in
  let constant _ alpha = Array.make (Array.length alpha) 0 in
  let hits prover =
    List.filter
      (fun seed -> (Gni_induced.run_single ~params ~seed inst prover).Outcome.accepted)
      (List.init 30 (fun i -> i + 1))
  in
  let honest_hits = hits honest in
  Alcotest.(check bool) "honest prover wins some repetitions" true (honest_hits <> []);
  Alcotest.(check (list int)) "off-class-constant alpha never accepted" [] (hits (with_alpha "off-class" off_class));
  Alcotest.(check (list int)) "constant alpha never accepted" [] (hits (with_alpha "constant" constant))

let suite =
  [ ( "gs",
      [ Alcotest.test_case "full outcomes pinned" `Slow test_outcome_pins;
        Alcotest.test_case "gni fault hit counts pinned" `Quick test_fault_count_pins;
        Alcotest.test_case "induced alpha must be a permutation" `Quick test_induced_rejects_non_permutation_alpha
      ] )
  ]
