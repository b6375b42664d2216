(* Full-outcome pins for the three Lemma 3.1 protocols (Sym_dmam, Sym_dam,
   Dsym), captured when each still had its own copy of the hash-and-
   aggregate check, so they hold the shared Sym_core to the originals. Every
   field of Outcome.t is pinned — verdict, per-node and total bit charges,
   prover name — so a change in the message schedule, a bit charge, a seed
   salt or the node check moves a pin even when acceptance does not. Runs
   under a small prime make hash collisions common, so the cheats' winning
   paths (root comparison, echo test) are pinned too; the exact soundness
   floats and the Protocol 2 collision-search tables are pinned bit for
   bit. *)

open Ids_proof
module Rng = Ids_bignum.Rng
module Nat = Ids_bignum.Nat
module Fault = Ids_network.Fault
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Perm = Ids_graph.Perm
module Field = Ids_hash.Field
module Obs = Ids_obs.Obs

let show (o : Outcome.t) =
  Printf.sprintf "%b %d %d %d %s" o.Outcome.accepted o.Outcome.max_bits_per_node
    o.Outcome.max_response_bits o.Outcome.total_bits o.Outcome.prover

let sym_yes = lazy (Family.random_symmetric (Rng.create 7) 8)
let sym_no = lazy (Family.random_asymmetric (Rng.create 7) 8)

let dsym_core = lazy (Family.random_asymmetric (Rng.create 7) 6)
let dsym_yes = lazy (Dsym.make_instance ~n:6 ~r:1 (Family.dsym_graph (Lazy.force dsym_core) 1))
let dsym_no = lazy (Dsym.make_instance ~n:6 ~r:1 (Family.dsym_perturbed (Rng.create 8) (Lazy.force dsym_core) 1))

(* A small prime: collisions under a wrong mapping become likely. *)
let small = 211
let dmam_small = { Sym_dmam.p = small; field = Field.int_field small }
let dam_small = { Sym_dam.p = Nat.of_int small; field = Field.nat_field (Nat.of_int small) }
let dsym_small = { Dsym.p = small; field = Field.int_field small }

let sides y n = [ ("yes", Lazy.force y); ("no", Lazy.force n) ]

let faults =
  [ ("drop=0.1", Fault.drop_only 0.1);
    ("corrupt=0.3", Fault.corrupt_only 0.3);
    ("equivocate", Fault.equivocate_only);
    ("crash=0.2", Fault.crash_only 0.2)
  ]

(* One strategy point per level of every non-fault axis, the other axes at
   level 0. *)
let strategy_points protocol =
  let lv = Strategy.levels protocol and fault = Strategy.fault_axis protocol in
  List.concat
    (List.init (Array.length lv) (fun axis ->
         if axis = fault then []
         else
           List.filter_map
             (fun level ->
               let pt = Array.make (Array.length lv) 0 in
               pt.(axis) <- level;
               if axis > 0 && level = 0 then None else Some (Strategy.make protocol ~seed:0 pt))
             (List.init (Array.length lv.(axis)) Fun.id)))

(* Labelled outcomes, in the order of [pins]. *)
let outcomes () =
  let acc = ref [] in
  let add label o = acc := (label, show o) :: !acc in
  for seed = 1 to 3 do
    List.iter
      (fun (side, g) ->
        List.iter
          (fun (pname, params) ->
            List.iter
              (fun (name, p) ->
                add
                  (Printf.sprintf "sym_dmam %s %s %s seed=%d" side pname name seed)
                  (Sym_dmam.run ?params ~seed g p))
              (("honest", Sym_dmam.honest) :: Adversary.sym_dmam);
            List.iter
              (fun (name, p) ->
                add
                  (Printf.sprintf "sym_dam %s %s %s seed=%d" side pname name seed)
                  (Sym_dam.run ?params:(Option.map (fun _ -> dam_small) params) ~seed g p))
              (("honest", Sym_dam.honest) :: Adversary.sym_dam))
          [ ("default", None); ("small", Some dmam_small) ])
      (sides sym_yes sym_no);
    List.iter
      (fun (side, inst) ->
        List.iter
          (fun (pname, params) ->
            List.iter
              (fun (name, p) ->
                add (Printf.sprintf "dsym %s %s %s seed=%d" side pname name seed) (Dsym.run ?params ~seed inst p))
              (("honest", Dsym.honest) :: Adversary.dsym))
          [ ("default", None); ("small", Some dsym_small) ])
      (sides dsym_yes dsym_no)
  done;
  (* Strategy points on the NO instances under the small prime. *)
  for seed = 1 to 3 do
    let points protocol run =
      List.iter
        (fun s -> add (Printf.sprintf "%s seed=%d" (Strategy.encode s) seed) (run s))
        (strategy_points protocol)
    in
    points Strategy.Sym_dmam (fun s ->
        Sym_dmam.run ~params:dmam_small ~seed (Lazy.force sym_no) (Strategy.sym_dmam_prover s));
    points Strategy.Sym_dam (fun s ->
        Sym_dam.run ~params:dam_small ~seed (Lazy.force sym_no) (Strategy.sym_dam_prover s));
    points Strategy.Dsym (fun s -> Dsym.run ~params:dsym_small ~seed (Lazy.force dsym_no) (Strategy.dsym_prover s))
  done;
  (* Faulted runs on the YES instances: honest and the first registry cheat. *)
  for seed = 1 to 3 do
    List.iter
      (fun (fname, fault) ->
        let g = Lazy.force sym_yes and inst = Lazy.force dsym_yes in
        List.iter
          (fun (name, p) ->
            add (Printf.sprintf "sym_dmam yes %s %s seed=%d" fname name seed) (Sym_dmam.run ~fault ~seed g p))
          [ ("honest", Sym_dmam.honest); List.hd Adversary.sym_dmam ];
        List.iter
          (fun (name, p) ->
            add (Printf.sprintf "sym_dam yes %s %s seed=%d" fname name seed) (Sym_dam.run ~fault ~seed g p))
          [ ("honest", Sym_dam.honest); List.hd Adversary.sym_dam ];
        List.iter
          (fun (name, p) ->
            add (Printf.sprintf "dsym yes %s %s seed=%d" fname name seed) (Dsym.run ~fault ~seed inst p))
          [ ("honest", Dsym.honest); List.hd Adversary.dsym ])
      faults
  done;
  List.rev !acc

(* The exact soundness analysis of Protocol 1 and the challenge-aware
   search of Protocol 2, as labelled strings: floats in hex, tables as
   their images. *)
let analysis () =
  let g6 = Family.random_asymmetric (Rng.create 7) 6 and g8 = Lazy.force sym_no in
  let exact label params g rho =
    (label, Printf.sprintf "%h" (Sym_dmam.acceptance_probability_exact params g rho))
  in
  let rotation n = Perm.of_array (Array.init n (fun i -> (i + 1) mod n)) in
  let p6 = Sym_dmam.params_for ~seed:1 g6 in
  let auto = Option.get (Precomp.nontrivial_automorphism (Lazy.force sym_yes)) in
  let table label params g =
    let f = params.Sym_dam.field in
    let rng = Rng.create (Hashtbl.hash label) in
    let challenges = Array.init (Graph.n g) (fun _ -> f.Field.random rng) in
    let t = Sym_dam.search_table ~seed:9 params g challenges in
    (label, String.concat " " (Array.to_list (Array.map string_of_int t)))
  in
  [ exact "exact g6 default (0 1)" p6 g6 (Perm.transposition 6 0 1);
    exact "exact g6 default rotation" p6 g6 (rotation 6);
    exact "exact g6 small (0 1)" dmam_small g6 (Perm.transposition 6 0 1);
    exact "exact g8 small rotation" dmam_small g8 (rotation 8);
    exact "exact yes small automorphism" dmam_small (Lazy.force sym_yes) auto;
    ( "bound g6 default",
      Printf.sprintf "%h" (Sym_dmam.best_adversary_bound ~sample:5 ~seed:3 (Sym_dmam.params_for ~seed:2 g6) g6) );
    ("bound g8 small", Printf.sprintf "%h" (Sym_dmam.best_adversary_bound ~sample:5 ~seed:3 dmam_small g8));
    table "search no default" (Sym_dam.params_for ~seed:1 g8) g8;
    table "search yes small" dam_small (Lazy.force sym_yes)
  ]
  @ List.concat_map
      (fun q ->
        let params = { Sym_dam.p = Nat.of_int q; field = Field.nat_field (Nat.of_int q) } in
        List.init 4 (fun i -> table (Printf.sprintf "search g6 p=%d #%d" q i) params g6))
      [ 5; 11; 23 ]

let pins =
  [
    ("sym_dmam yes default honest seed=1", "true 76 60 608 honest");
    ("sym_dmam yes default random-perm seed=1", "false 76 60 608 adversary:random-perm");
    ("sym_dmam yes default forged-sums seed=1", "false 76 60 608 adversary:forged-sums");
    ("sym_dmam yes default identity seed=1", "false 76 60 608 adversary:identity");
    ("sym_dmam yes default split-broadcast seed=1", "false 76 60 608 adversary:split-broadcast");
    ("sym_dam yes default honest seed=1", "true 181 144 1448 honest");
    ("sym_dam yes default search seed=1", "false 181 144 1448 adversary:search");
    ("sym_dam yes default random-perm seed=1", "false 181 144 1448 adversary:random-perm");
    ("sym_dmam yes small honest seed=1", "true 44 36 352 honest");
    ("sym_dmam yes small random-perm seed=1", "false 44 36 352 adversary:random-perm");
    ("sym_dmam yes small forged-sums seed=1", "false 44 36 352 adversary:forged-sums");
    ("sym_dmam yes small identity seed=1", "false 44 36 352 adversary:identity");
    ("sym_dmam yes small split-broadcast seed=1", "false 44 36 352 adversary:split-broadcast");
    ("sym_dam yes small honest seed=1", "true 65 57 520 honest");
    ("sym_dam yes small search seed=1", "true 65 57 520 adversary:search");
    ("sym_dam yes small random-perm seed=1", "false 65 57 520 adversary:random-perm");
    ("sym_dmam no default honest seed=1", "false 76 60 608 honest");
    ("sym_dmam no default random-perm seed=1", "false 76 60 608 adversary:random-perm");
    ("sym_dmam no default forged-sums seed=1", "false 76 60 608 adversary:forged-sums");
    ("sym_dmam no default identity seed=1", "false 76 60 608 adversary:identity");
    ("sym_dmam no default split-broadcast seed=1", "false 76 60 608 adversary:split-broadcast");
    ("sym_dam no default honest seed=1", "false 181 144 1448 honest");
    ("sym_dam no default search seed=1", "false 181 144 1448 adversary:search");
    ("sym_dam no default random-perm seed=1", "false 181 144 1448 adversary:random-perm");
    ("sym_dmam no small honest seed=1", "false 44 36 352 honest");
    ("sym_dmam no small random-perm seed=1", "false 44 36 352 adversary:random-perm");
    ("sym_dmam no small forged-sums seed=1", "false 44 36 352 adversary:forged-sums");
    ("sym_dmam no small identity seed=1", "false 44 36 352 adversary:identity");
    ("sym_dmam no small split-broadcast seed=1", "false 44 36 352 adversary:split-broadcast");
    ("sym_dam no small honest seed=1", "false 65 57 520 honest");
    ("sym_dam no small search seed=1", "true 65 57 520 adversary:search");
    ("sym_dam no small random-perm seed=1", "false 65 57 520 adversary:random-perm");
    ("dsym yes default honest seed=1", "true 88 69 1320 honest");
    ("dsym yes default consistent seed=1", "true 88 69 1320 adversary:consistent");
    ("dsym yes default wrong-permutation seed=1", "false 88 69 1320 adversary:wrong-permutation");
    ("dsym yes small honest seed=1", "true 44 36 660 honest");
    ("dsym yes small consistent seed=1", "true 44 36 660 adversary:consistent");
    ("dsym yes small wrong-permutation seed=1", "false 44 36 660 adversary:wrong-permutation");
    ("dsym no default honest seed=1", "false 88 69 1320 honest");
    ("dsym no default consistent seed=1", "false 88 69 1320 adversary:consistent");
    ("dsym no default wrong-permutation seed=1", "false 88 69 1320 adversary:wrong-permutation");
    ("dsym no small honest seed=1", "false 44 36 660 honest");
    ("dsym no small consistent seed=1", "false 44 36 660 adversary:consistent");
    ("dsym no small wrong-permutation seed=1", "false 44 36 660 adversary:wrong-permutation");
    ("sym_dmam yes default honest seed=2", "true 64 51 512 honest");
    ("sym_dmam yes default random-perm seed=2", "false 64 51 512 adversary:random-perm");
    ("sym_dmam yes default forged-sums seed=2", "false 64 51 512 adversary:forged-sums");
    ("sym_dmam yes default identity seed=2", "false 64 51 512 adversary:identity");
    ("sym_dmam yes default split-broadcast seed=2", "false 64 51 512 adversary:split-broadcast");
    ("sym_dam yes default honest seed=2", "true 177 141 1416 honest");
    ("sym_dam yes default search seed=2", "false 177 141 1416 adversary:search");
    ("sym_dam yes default random-perm seed=2", "false 177 141 1416 adversary:random-perm");
    ("sym_dmam yes small honest seed=2", "true 44 36 352 honest");
    ("sym_dmam yes small random-perm seed=2", "false 44 36 352 adversary:random-perm");
    ("sym_dmam yes small forged-sums seed=2", "false 44 36 352 adversary:forged-sums");
    ("sym_dmam yes small identity seed=2", "false 44 36 352 adversary:identity");
    ("sym_dmam yes small split-broadcast seed=2", "false 44 36 352 adversary:split-broadcast");
    ("sym_dam yes small honest seed=2", "true 65 57 520 honest");
    ("sym_dam yes small search seed=2", "false 65 57 520 adversary:search");
    ("sym_dam yes small random-perm seed=2", "false 65 57 520 adversary:random-perm");
    ("sym_dmam no default honest seed=2", "false 64 51 512 honest");
    ("sym_dmam no default random-perm seed=2", "false 64 51 512 adversary:random-perm");
    ("sym_dmam no default forged-sums seed=2", "false 64 51 512 adversary:forged-sums");
    ("sym_dmam no default identity seed=2", "false 64 51 512 adversary:identity");
    ("sym_dmam no default split-broadcast seed=2", "false 64 51 512 adversary:split-broadcast");
    ("sym_dam no default honest seed=2", "false 177 141 1416 honest");
    ("sym_dam no default search seed=2", "false 177 141 1416 adversary:search");
    ("sym_dam no default random-perm seed=2", "false 177 141 1416 adversary:random-perm");
    ("sym_dmam no small honest seed=2", "false 44 36 352 honest");
    ("sym_dmam no small random-perm seed=2", "false 44 36 352 adversary:random-perm");
    ("sym_dmam no small forged-sums seed=2", "false 44 36 352 adversary:forged-sums");
    ("sym_dmam no small identity seed=2", "false 44 36 352 adversary:identity");
    ("sym_dmam no small split-broadcast seed=2", "false 44 36 352 adversary:split-broadcast");
    ("sym_dam no small honest seed=2", "false 65 57 520 honest");
    ("sym_dam no small search seed=2", "false 65 57 520 adversary:search");
    ("sym_dam no small random-perm seed=2", "false 65 57 520 adversary:random-perm");
    ("dsym yes default honest seed=2", "true 88 69 1320 honest");
    ("dsym yes default consistent seed=2", "true 88 69 1320 adversary:consistent");
    ("dsym yes default wrong-permutation seed=2", "false 88 69 1320 adversary:wrong-permutation");
    ("dsym yes small honest seed=2", "true 44 36 660 honest");
    ("dsym yes small consistent seed=2", "true 44 36 660 adversary:consistent");
    ("dsym yes small wrong-permutation seed=2", "false 44 36 660 adversary:wrong-permutation");
    ("dsym no default honest seed=2", "false 88 69 1320 honest");
    ("dsym no default consistent seed=2", "false 88 69 1320 adversary:consistent");
    ("dsym no default wrong-permutation seed=2", "false 88 69 1320 adversary:wrong-permutation");
    ("dsym no small honest seed=2", "false 44 36 660 honest");
    ("dsym no small consistent seed=2", "false 44 36 660 adversary:consistent");
    ("dsym no small wrong-permutation seed=2", "false 44 36 660 adversary:wrong-permutation");
    ("sym_dmam yes default honest seed=3", "true 64 51 512 honest");
    ("sym_dmam yes default random-perm seed=3", "false 64 51 512 adversary:random-perm");
    ("sym_dmam yes default forged-sums seed=3", "false 64 51 512 adversary:forged-sums");
    ("sym_dmam yes default identity seed=3", "false 64 51 512 adversary:identity");
    ("sym_dmam yes default split-broadcast seed=3", "false 64 51 512 adversary:split-broadcast");
    ("sym_dam yes default honest seed=3", "true 173 138 1384 honest");
    ("sym_dam yes default search seed=3", "false 173 138 1384 adversary:search");
    ("sym_dam yes default random-perm seed=3", "false 173 138 1384 adversary:random-perm");
    ("sym_dmam yes small honest seed=3", "true 44 36 352 honest");
    ("sym_dmam yes small random-perm seed=3", "false 44 36 352 adversary:random-perm");
    ("sym_dmam yes small forged-sums seed=3", "false 44 36 352 adversary:forged-sums");
    ("sym_dmam yes small identity seed=3", "false 44 36 352 adversary:identity");
    ("sym_dmam yes small split-broadcast seed=3", "false 44 36 352 adversary:split-broadcast");
    ("sym_dam yes small honest seed=3", "true 65 57 520 honest");
    ("sym_dam yes small search seed=3", "true 65 57 520 adversary:search");
    ("sym_dam yes small random-perm seed=3", "false 65 57 520 adversary:random-perm");
    ("sym_dmam no default honest seed=3", "false 64 51 512 honest");
    ("sym_dmam no default random-perm seed=3", "false 64 51 512 adversary:random-perm");
    ("sym_dmam no default forged-sums seed=3", "false 64 51 512 adversary:forged-sums");
    ("sym_dmam no default identity seed=3", "false 64 51 512 adversary:identity");
    ("sym_dmam no default split-broadcast seed=3", "false 64 51 512 adversary:split-broadcast");
    ("sym_dam no default honest seed=3", "false 173 138 1384 honest");
    ("sym_dam no default search seed=3", "false 173 138 1384 adversary:search");
    ("sym_dam no default random-perm seed=3", "false 173 138 1384 adversary:random-perm");
    ("sym_dmam no small honest seed=3", "false 44 36 352 honest");
    ("sym_dmam no small random-perm seed=3", "false 44 36 352 adversary:random-perm");
    ("sym_dmam no small forged-sums seed=3", "false 44 36 352 adversary:forged-sums");
    ("sym_dmam no small identity seed=3", "false 44 36 352 adversary:identity");
    ("sym_dmam no small split-broadcast seed=3", "false 44 36 352 adversary:split-broadcast");
    ("sym_dam no small honest seed=3", "false 65 57 520 honest");
    ("sym_dam no small search seed=3", "true 65 57 520 adversary:search");
    ("sym_dam no small random-perm seed=3", "false 65 57 520 adversary:random-perm");
    ("dsym yes default honest seed=3", "true 88 69 1320 honest");
    ("dsym yes default consistent seed=3", "true 88 69 1320 adversary:consistent");
    ("dsym yes default wrong-permutation seed=3", "false 88 69 1320 adversary:wrong-permutation");
    ("dsym yes small honest seed=3", "true 44 36 660 honest");
    ("dsym yes small consistent seed=3", "true 44 36 660 adversary:consistent");
    ("dsym yes small wrong-permutation seed=3", "false 44 36 660 adversary:wrong-permutation");
    ("dsym no default honest seed=3", "false 88 69 1320 honest");
    ("dsym no default consistent seed=3", "false 88 69 1320 adversary:consistent");
    ("dsym no default wrong-permutation seed=3", "false 88 69 1320 adversary:wrong-permutation");
    ("dsym no small honest seed=3", "false 44 36 660 honest");
    ("dsym no small consistent seed=3", "false 44 36 660 adversary:consistent");
    ("dsym no small wrong-permutation seed=3", "false 44 36 660 adversary:wrong-permutation");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none seed=1", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=random split=none sums=consistent echo=root fault=none seed=1", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=random split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=identity split=none sums=consistent echo=root fault=none seed=1", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=identity split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=rotation split=none sums=consistent echo=root fault=none seed=1", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=rotation split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=root sums=consistent echo=root fault=none seed=1", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=root sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=forge-root-b echo=root fault=none seed=1", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=forge-root-b echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=offset-b echo=root fault=none seed=1", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=offset-b echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=skew fault=none seed=1", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=skew fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=consistent echo=root fault=none seed=1", "true 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=fallback sums=consistent echo=root fault=none seed=1", "false 65 57 520 strategy v1 sym_dam seed=0 perm=fallback sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=random sums=consistent echo=root fault=none seed=1", "false 65 57 520 strategy v1 sym_dam seed=0 perm=random sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=identity sums=consistent echo=root fault=none seed=1", "false 65 57 520 strategy v1 sym_dam seed=0 perm=identity sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=forge-root-b echo=root fault=none seed=1", "true 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=forge-root-b echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=offset-b echo=root fault=none seed=1", "false 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=offset-b echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=consistent echo=skew fault=none seed=1", "false 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=consistent echo=skew fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=root fault=none seed=1", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=swapped root=zero sums=consistent echo=root fault=none seed=1", "false 44 36 660 strategy v1 dsym seed=0 perm=swapped root=zero sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=one sums=consistent echo=root fault=none seed=1", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=one sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=forge-root-b echo=root fault=none seed=1", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=forge-root-b echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=offset-b echo=root fault=none seed=1", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=offset-b echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=skew fault=none seed=1", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=skew fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none seed=2", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=random split=none sums=consistent echo=root fault=none seed=2", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=random split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=identity split=none sums=consistent echo=root fault=none seed=2", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=identity split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=rotation split=none sums=consistent echo=root fault=none seed=2", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=rotation split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=root sums=consistent echo=root fault=none seed=2", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=root sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=forge-root-b echo=root fault=none seed=2", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=forge-root-b echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=offset-b echo=root fault=none seed=2", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=offset-b echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=skew fault=none seed=2", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=skew fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=consistent echo=root fault=none seed=2", "false 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=fallback sums=consistent echo=root fault=none seed=2", "false 65 57 520 strategy v1 sym_dam seed=0 perm=fallback sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=random sums=consistent echo=root fault=none seed=2", "false 65 57 520 strategy v1 sym_dam seed=0 perm=random sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=identity sums=consistent echo=root fault=none seed=2", "false 65 57 520 strategy v1 sym_dam seed=0 perm=identity sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=forge-root-b echo=root fault=none seed=2", "false 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=forge-root-b echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=offset-b echo=root fault=none seed=2", "false 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=offset-b echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=consistent echo=skew fault=none seed=2", "false 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=consistent echo=skew fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=root fault=none seed=2", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=swapped root=zero sums=consistent echo=root fault=none seed=2", "false 44 36 660 strategy v1 dsym seed=0 perm=swapped root=zero sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=one sums=consistent echo=root fault=none seed=2", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=one sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=forge-root-b echo=root fault=none seed=2", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=forge-root-b echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=offset-b echo=root fault=none seed=2", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=offset-b echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=skew fault=none seed=2", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=skew fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none seed=3", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=random split=none sums=consistent echo=root fault=none seed=3", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=random split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=identity split=none sums=consistent echo=root fault=none seed=3", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=identity split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=rotation split=none sums=consistent echo=root fault=none seed=3", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=rotation split=none sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=root sums=consistent echo=root fault=none seed=3", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=root sums=consistent echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=forge-root-b echo=root fault=none seed=3", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=forge-root-b echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=offset-b echo=root fault=none seed=3", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=offset-b echo=root fault=none");
    ("strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=skew fault=none seed=3", "false 44 36 352 strategy v1 sym_dmam seed=0 perm=fallback split=none sums=consistent echo=skew fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=consistent echo=root fault=none seed=3", "true 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=fallback sums=consistent echo=root fault=none seed=3", "false 65 57 520 strategy v1 sym_dam seed=0 perm=fallback sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=random sums=consistent echo=root fault=none seed=3", "false 65 57 520 strategy v1 sym_dam seed=0 perm=random sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=identity sums=consistent echo=root fault=none seed=3", "false 65 57 520 strategy v1 sym_dam seed=0 perm=identity sums=consistent echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=forge-root-b echo=root fault=none seed=3", "true 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=forge-root-b echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=offset-b echo=root fault=none seed=3", "false 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=offset-b echo=root fault=none");
    ("strategy v1 sym_dam seed=0 perm=search sums=consistent echo=skew fault=none seed=3", "false 65 57 520 strategy v1 sym_dam seed=0 perm=search sums=consistent echo=skew fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=root fault=none seed=3", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=swapped root=zero sums=consistent echo=root fault=none seed=3", "false 44 36 660 strategy v1 dsym seed=0 perm=swapped root=zero sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=one sums=consistent echo=root fault=none seed=3", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=one sums=consistent echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=forge-root-b echo=root fault=none seed=3", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=forge-root-b echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=offset-b echo=root fault=none seed=3", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=offset-b echo=root fault=none");
    ("strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=skew fault=none seed=3", "false 44 36 660 strategy v1 dsym seed=0 perm=sigma root=zero sums=consistent echo=skew fault=none");
    ("sym_dmam yes drop=0.1 honest seed=1", "false 76 60 608 honest");
    ("sym_dmam yes drop=0.1 random-perm seed=1", "false 76 60 608 adversary:random-perm");
    ("sym_dam yes drop=0.1 honest seed=1", "false 181 144 1448 honest");
    ("sym_dam yes drop=0.1 search seed=1", "false 181 144 1448 adversary:search");
    ("dsym yes drop=0.1 honest seed=1", "false 88 69 1320 honest");
    ("dsym yes drop=0.1 consistent seed=1", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes corrupt=0.3 honest seed=1", "false 76 60 608 honest");
    ("sym_dmam yes corrupt=0.3 random-perm seed=1", "false 76 60 608 adversary:random-perm");
    ("sym_dam yes corrupt=0.3 honest seed=1", "false 181 144 1448 honest");
    ("sym_dam yes corrupt=0.3 search seed=1", "false 181 144 1448 adversary:search");
    ("dsym yes corrupt=0.3 honest seed=1", "false 88 69 1320 honest");
    ("dsym yes corrupt=0.3 consistent seed=1", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes equivocate honest seed=1", "false 76 60 608 honest");
    ("sym_dmam yes equivocate random-perm seed=1", "false 76 60 608 adversary:random-perm");
    ("sym_dam yes equivocate honest seed=1", "false 181 144 1448 honest");
    ("sym_dam yes equivocate search seed=1", "false 181 144 1448 adversary:search");
    ("dsym yes equivocate honest seed=1", "false 88 69 1320 honest");
    ("dsym yes equivocate consistent seed=1", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes crash=0.2 honest seed=1", "false 76 60 456 honest");
    ("sym_dmam yes crash=0.2 random-perm seed=1", "false 76 60 456 adversary:random-perm");
    ("sym_dam yes crash=0.2 honest seed=1", "false 181 144 1086 honest");
    ("sym_dam yes crash=0.2 search seed=1", "false 181 144 1086 adversary:search");
    ("dsym yes crash=0.2 honest seed=1", "false 88 69 1056 honest");
    ("dsym yes crash=0.2 consistent seed=1", "false 88 69 1056 adversary:consistent");
    ("sym_dmam yes drop=0.1 honest seed=2", "false 64 51 512 honest");
    ("sym_dmam yes drop=0.1 random-perm seed=2", "false 64 51 512 adversary:random-perm");
    ("sym_dam yes drop=0.1 honest seed=2", "false 177 141 1416 honest");
    ("sym_dam yes drop=0.1 search seed=2", "false 177 141 1416 adversary:search");
    ("dsym yes drop=0.1 honest seed=2", "false 88 69 1320 honest");
    ("dsym yes drop=0.1 consistent seed=2", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes corrupt=0.3 honest seed=2", "false 64 51 512 honest");
    ("sym_dmam yes corrupt=0.3 random-perm seed=2", "false 64 51 512 adversary:random-perm");
    ("sym_dam yes corrupt=0.3 honest seed=2", "false 177 141 1416 honest");
    ("sym_dam yes corrupt=0.3 search seed=2", "false 177 141 1416 adversary:search");
    ("dsym yes corrupt=0.3 honest seed=2", "false 88 69 1320 honest");
    ("dsym yes corrupt=0.3 consistent seed=2", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes equivocate honest seed=2", "false 64 51 512 honest");
    ("sym_dmam yes equivocate random-perm seed=2", "false 64 51 512 adversary:random-perm");
    ("sym_dam yes equivocate honest seed=2", "false 177 141 1416 honest");
    ("sym_dam yes equivocate search seed=2", "false 177 141 1416 adversary:search");
    ("dsym yes equivocate honest seed=2", "false 88 69 1320 honest");
    ("dsym yes equivocate consistent seed=2", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes crash=0.2 honest seed=2", "true 64 51 512 honest");
    ("sym_dmam yes crash=0.2 random-perm seed=2", "false 64 51 512 adversary:random-perm");
    ("sym_dam yes crash=0.2 honest seed=2", "true 177 141 1416 honest");
    ("sym_dam yes crash=0.2 search seed=2", "false 177 141 1416 adversary:search");
    ("dsym yes crash=0.2 honest seed=2", "false 88 69 1232 honest");
    ("dsym yes crash=0.2 consistent seed=2", "false 88 69 1232 adversary:consistent");
    ("sym_dmam yes drop=0.1 honest seed=3", "false 64 51 512 honest");
    ("sym_dmam yes drop=0.1 random-perm seed=3", "false 64 51 512 adversary:random-perm");
    ("sym_dam yes drop=0.1 honest seed=3", "false 173 138 1384 honest");
    ("sym_dam yes drop=0.1 search seed=3", "false 173 138 1384 adversary:search");
    ("dsym yes drop=0.1 honest seed=3", "false 88 69 1320 honest");
    ("dsym yes drop=0.1 consistent seed=3", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes corrupt=0.3 honest seed=3", "false 64 51 512 honest");
    ("sym_dmam yes corrupt=0.3 random-perm seed=3", "false 64 51 512 adversary:random-perm");
    ("sym_dam yes corrupt=0.3 honest seed=3", "false 173 138 1384 honest");
    ("sym_dam yes corrupt=0.3 search seed=3", "false 173 138 1384 adversary:search");
    ("dsym yes corrupt=0.3 honest seed=3", "false 88 69 1320 honest");
    ("dsym yes corrupt=0.3 consistent seed=3", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes equivocate honest seed=3", "false 64 51 512 honest");
    ("sym_dmam yes equivocate random-perm seed=3", "false 64 51 512 adversary:random-perm");
    ("sym_dam yes equivocate honest seed=3", "false 173 138 1384 honest");
    ("sym_dam yes equivocate search seed=3", "false 173 138 1384 adversary:search");
    ("dsym yes equivocate honest seed=3", "false 88 69 1320 honest");
    ("dsym yes equivocate consistent seed=3", "false 88 69 1320 adversary:consistent");
    ("sym_dmam yes crash=0.2 honest seed=3", "false 64 51 448 honest");
    ("sym_dmam yes crash=0.2 random-perm seed=3", "false 64 51 448 adversary:random-perm");
    ("sym_dam yes crash=0.2 honest seed=3", "false 173 138 1211 honest");
    ("sym_dam yes crash=0.2 search seed=3", "false 173 138 1211 adversary:search");
    ("dsym yes crash=0.2 honest seed=3", "false 88 69 1232 honest");
    ("dsym yes crash=0.2 consistent seed=3", "false 88 69 1232 adversary:consistent");
    ("exact g6 default (0 1)", "0x1.e50f11bbd90ap-12");
    ("exact g6 default rotation", "0x1.6bcb4d4ce2c78p-12");
    ("exact g6 small (0 1)", "0x1.3698df3de0748p-5");
    ("exact g8 small rotation", "0x1.d1e54edcd0aebp-7");
    ("exact yes small automorphism", "0x1p+0");
    ("bound g6 default", "0x1.95d72d9b29a49p-11");
    ("bound g8 small", "0x1.232f514a026d3p-4");
    ("search no default", "1 0 2 3 4 5 6 7");
    ("search yes small", "0 1 2 3 5 4 6 7");
    ("search g6 p=5 #0", "2 1 0 3 4 5");
    ("search g6 p=5 #1", "2 1 0 3 4 5");
    ("search g6 p=5 #2", "1 0 2 3 4 5");
    ("search g6 p=5 #3", "4 1 2 3 0 5");
    ("search g6 p=11 #0", "0 1 3 2 4 5");
    ("search g6 p=11 #1", "0 1 3 2 4 5");
    ("search g6 p=11 #2", "0 3 2 1 4 5");
    ("search g6 p=11 #3", "1 0 2 3 4 5");
    ("search g6 p=23 #0", "1 3 0 5 4 2");
    ("search g6 p=23 #1", "1 0 2 3 4 5");
    ("search g6 p=23 #2", "5 1 2 3 4 0");
    ("search g6 p=23 #3", "0 1 3 2 4 5")
  ]

let test_outcome_pins () =
  let got = outcomes () @ analysis () in
  Alcotest.(check int) "pin count" (List.length pins) (List.length got);
  List.iter2
    (fun (label, want) (got_label, got) ->
      Alcotest.(check string) "label order" label got_label;
      Alcotest.(check string) label want got)
    pins got

(* Instrumentation calls of one traced run per protocol and side, on fresh
   graph copies so the memo layer starts cold whatever ran before. *)
let test_ops_count_pins () =
  let was = Obs.enabled () in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled was;
      Obs.reset ())
    (fun () ->
      Obs.set_enabled true;
      let count run =
        Obs.reset ();
        ignore (run ());
        Obs.ops_count ()
      in
      let fresh g = Graph.copy (Lazy.force g) in
      let fresh_inst i =
        let i = Lazy.force i in
        Dsym.make_instance ~n:i.Dsym.n ~r:i.Dsym.r (Graph.copy i.Dsym.graph)
      in
      let yes = fresh sym_yes and no = fresh sym_no in
      let dyes = fresh_inst dsym_yes and dno = fresh_inst dsym_no in
      let got =
        [ count (fun () -> Sym_dmam.run ~seed:1 yes Sym_dmam.honest);
          count (fun () -> Sym_dmam.run ~seed:1 no Sym_dmam.adversary_random_perm);
          count (fun () -> Sym_dmam.run ~fault:Fault.equivocate_only ~seed:2 yes Sym_dmam.honest);
          count (fun () -> Sym_dam.run ~seed:1 yes Sym_dam.honest);
          count (fun () -> Sym_dam.run ~seed:1 no Sym_dam.adversary_search);
          count (fun () -> Sym_dam.run ~fault:Fault.equivocate_only ~seed:2 yes Sym_dam.honest);
          count (fun () -> Dsym.run ~seed:1 dyes Dsym.honest);
          count (fun () -> Dsym.run ~seed:1 dno Dsym.adversary_consistent);
          count (fun () -> Dsym.run ~fault:Fault.equivocate_only ~seed:2 dyes Dsym.honest)
        ]
      in
      Alcotest.(check (list int)) "ops counts" [ 90; 89; 162; 240; 239; 294; 132; 132; 247 ] got)

(* Protocol 1 and DSym draw p from [10 N^3, 100 N^3], which outgrows the
   native-product field (p < 2^31) from N = 280 on: those primes must take
   the widening int62 field rather than raise. The two runs are the
   ids-demo commands `sym -n 400 --seed 0` and `dsym -n 150 -r 2 --seed 1`. *)
let test_large_n_primes () =
  let wide =
    List.filter
      (fun seed -> (Sym_dmam.params_for ~seed (Graph.cycle 400)).Sym_dmam.p >= 1 lsl 31)
      (List.init 20 Fun.id)
  in
  Alcotest.(check int) "cycle 400: seeds with p >= 2^31" 10 (List.length wide);
  let g = Family.random_symmetric (Rng.create 0) 400 in
  Alcotest.(check bool) "sym n=400 seed 0: p >= 2^31" true ((Sym_dmam.params_for ~seed:0 g).Sym_dmam.p >= 1 lsl 31);
  Alcotest.(check bool) "sym n=400 honest accepted" true (Sym_dmam.run ~seed:0 g Sym_dmam.honest).Outcome.accepted;
  let side = Family.random_asymmetric (Rng.create 1) 150 in
  let inst = Dsym.make_instance ~n:150 ~r:2 (Family.dsym_graph side 2) in
  Alcotest.(check bool) "dsym n=150 seed 1: p >= 2^31" true ((Dsym.params_for ~seed:1 inst).Dsym.p >= 1 lsl 31);
  Alcotest.(check bool) "dsym n=150 honest accepted" true (Dsym.run ~seed:1 inst Dsym.honest).Outcome.accepted

let suite =
  [ ( "sym",
      [ Alcotest.test_case "full outcomes pinned" `Slow test_outcome_pins;
        Alcotest.test_case "traced ops counts pinned" `Quick test_ops_count_pins;
        Alcotest.test_case "large-n primes take the int62 field" `Quick test_large_n_primes
      ] )
  ]
