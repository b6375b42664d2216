module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm
module Iso = Ids_graph.Iso
module Rng = Ids_bignum.Rng

type instance = {
  g0 : Graph.t;
  g1 : Graph.t;
  n : int;
  aut0 : int array list Lazy.t;
  aut1 : int array list Lazy.t;
  candidates : Gs.candidate array Lazy.t;
}

let automorphism_tables g =
  List.filter_map
    (fun p -> if Iso.is_automorphism g p then Some (Perm.to_array p) else None)
    (Perm.all (Graph.n g))

(* Rows of the hashed object under a witness (sigma, alpha) on side g: the
   2n-row stack of A_{sigma(G_b)} and the permutation matrix of
   beta = sigma alpha sigma^{-1}. Node v owns rows sigma(v) and
   n + sigma(v). *)
let own_rows g (w : Gs.witness) v =
  let sigma, alpha = Gs.table_pair w in
  Gs.stacked_rows ~n:(Graph.n g) sigma alpha v (Graph.closed_neighborhood g v)

let make_instance g0 g1 =
  let n = Graph.n g0 in
  if Graph.n g1 <> n then invalid_arg "Gni_full.make_instance: size mismatch";
  if n > 7 then invalid_arg "Gni_full.make_instance: n > 7";
  if not (Graph.is_connected g0) then invalid_arg "Gni_full.make_instance: network graph must be connected";
  let aut0 = lazy (automorphism_tables g0) and aut1 = lazy (automorphism_tables g1) in
  let candidates =
    lazy
      (let check_size auts =
         if List.length auts > 256 then
           invalid_arg "Gni_full.make_instance: automorphism group too large to enumerate"
       in
       check_size (Lazy.force aut0);
       check_size (Lazy.force aut1);
       (* Deduplicating by hashed matrix, i.e. by the represented pair
          (H, beta), deliberately ignores b: S is a set of pairs, and for
          isomorphic inputs the two sides contribute the same pairs — which
          is the whole point of the size gap. *)
       let perms = List.to_seq (List.map Perm.to_array (Perm.all n)) in
       let pairs (g, b, auts) =
         let pair sigma alpha = Gs.candidate ~n (own_rows g) { Gs.b; tables = [ sigma; alpha ] } in
         Seq.flat_map (fun sigma -> Seq.map (pair sigma) (List.to_seq auts)) perms
       in
       Gs.distinct (Seq.flat_map pairs (List.to_seq [ (g0, 0, Lazy.force aut0); (g1, 1, Lazy.force aut1) ])))
  in
  { g0; g1; n; aut0; aut1; candidates }

let small_symmetric rng n =
  let rec sample () =
    let g = Graph.random_connected_gnp rng n 0.5 in
    if Iso.is_symmetric g && List.length (automorphism_tables g) <= 48 then g else sample ()
  in
  sample ()

let yes_instance rng n =
  let g0 = small_symmetric rng n in
  let rec pick () =
    let g1 = Ids_graph.Family.random_asymmetric rng n in
    if Iso.are_isomorphic g0 g1 then pick () else g1
  in
  make_instance g0 (pick ())

let no_instance rng n =
  let g0 = small_symmetric rng n in
  make_instance g0 (Graph.relabel g0 (Perm.to_array (Perm.random rng n)))

let side inst b = if b = 0 then inst.g0 else inst.g1

(* Lemma 3.1 on G_b: alpha is an automorphism iff the committed matrix
   equals its alpha-image, compared under the audit point. *)
let audit_terms inst f point (w : Gs.witness) v =
  let g = side inst w.b in
  Gs.lemma31_terms f point ~n:inst.n (snd (Gs.table_pair w)) v (Graph.closed_neighborhood g v)

(* The hashed matrices have 2n rows of width 2n (only the first n columns
   are populated), so the Schwartz–Zippel degree is m = (2n)^2 + 2n. The NO
   side adds a committed fake automorphism slipping past the
   post-commitment audit ((n^2+n)/q). *)
let set =
  { Gs.span = "gni_full";
    salt = 0x51c7;
    graph = (fun inst -> inst.g0);
    width = (fun inst -> 2 * inst.n);
    size = (fun inst -> Precomp.factorial inst.n);
    no_extra = (fun inst -> (inst.n * inst.n) + inst.n);
    table_count = 2;
    candidates = (fun inst -> inst.candidates);
    own_rows = (fun inst (w : Gs.witness) -> own_rows (side inst w.b) w);
    audits = 2;
    audit_terms
  }

type params = Gs.params

let params_for ?repetitions ~seed inst = Gs.params_for set ?repetitions ~seed inst

type prover = instance Gs.prover

let prover_name (p : prover) = p.Gs.name
let honest = Gs.honest set

let adversary_fake_automorphism =
  { Gs.name = "adversary:fake-automorphism";
    commit =
      (fun params inst ch ->
        (* Inflate the candidate set with non-automorphisms: much easier to
           hit the target, but the audit will expose the commitment. *)
        let inflated () =
          let n = inst.n in
          let rng = Rng.create 4242 in
          let fakes =
            List.filter
              (fun t -> not (Iso.is_automorphism inst.g0 (Perm.of_array t)))
              (List.init 8 (fun _ -> Perm.to_array (Perm.random rng n)))
          in
          let fake sigma alpha = Gs.candidate ~n (own_rows inst.g0) { Gs.b = 0; tables = [ sigma; alpha ] } in
          Gs.preimage params ~width:(set.width inst) ch
            (Seq.flat_map
               (fun sigma -> Seq.map (fake sigma) (List.to_seq fakes))
               (List.to_seq (List.map Perm.to_array (Perm.all n))))
        in
        let found = match Gs.search set params inst ch with Some _ as hit -> hit | None -> inflated () in
        Gs.commit set inst ch found);
    reveal = honest.reveal
  }

let run_single ?fault ?params ~seed inst prover = Gs.run_single set ?fault ?params ~seed inst prover
let run ?fault ?params ~seed inst prover = Gs.run set ?fault ?params ~seed inst prover
