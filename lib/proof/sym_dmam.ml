module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Perm = Ids_graph.Perm
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Bits = Ids_network.Bits
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Rng = Ids_bignum.Rng

type params = { p : int; field : int Field.t }

let params_for ~seed g =
  let n = max 2 (Graph.n g) in
  let rng = Rng.create (seed lxor 0x5f3b) in
  let p = Ids_bignum.Prime.random_prime_in_int rng (10 * n * n * n) (100 * n * n * n) in
  { p; field = Field.native_field p }

type commitment = { root : int array; rho : int array; parent : int array; dist : int array }

type response = { index : int array; a : int array; b : int array }

type prover = {
  name : string;
  commit : params -> Graph.t -> commitment;
  respond : params -> Graph.t -> commitment -> int array -> response;
}

let commit_with_rho g rho =
  let n = Graph.n g in
  let tree = Precomp.tree g (Sym_core.moved_root (rho : Perm.t :> int array)) in
  { root = Array.make n tree.Spanning_tree.root;
    rho = Perm.to_array rho;
    parent = Array.copy tree.Spanning_tree.parent;
    dist = Array.copy tree.Spanning_tree.dist
  }

let split_root c =
  let root = Array.copy c.root in
  root.(0) <- (if root.(0) = 0 then 1 else 0);
  { c with root }

let respond_consistently params g (c : commitment) challenges =
  let root = c.root.(0) in
  let index = challenges.(root) in
  let tree = { Spanning_tree.root; parent = c.parent; dist = c.dist } in
  let a, b = Sym_core.sums params.field g tree ~index c.rho in
  { index = Array.make (Graph.n g) index; a; b }

let honest =
  { name = "honest";
    commit = (fun _params g -> commit_with_rho g (Sym_core.honest_map g));
    respond = respond_consistently
  }

let run_body ?fault ?params ~seed g prover =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sym_dmam.run: need at least 2 nodes";
  let params = match params with Some p -> p | None -> params_for ~seed g in
  let f = params.field in
  let net = Network.create ?fault ~seed g in
  let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id n) in
  let field_corrupt = Fault.flip_int_bit ~bits:f.Field.bits in
  (* Merlin round 1. *)
  let c = prover.commit params g in
  let root_bc = Network.broadcast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.root in
  let rho_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.rho in
  let parent_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.parent in
  let dist_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.dist in
  (* Arthur round: random hash indices. *)
  let challenges = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  (* Merlin round 2. *)
  let r = prover.respond params g c challenges in
  let index_bc = Network.broadcast net ~corrupt:field_corrupt ~bits:f.Field.bits r.index in
  let a_u = Network.unicast net ~corrupt:field_corrupt ~bits:f.Field.bits r.a in
  let b_u = Network.unicast net ~corrupt:field_corrupt ~bits:f.Field.bits r.b in
  (* Verification. *)
  let check =
    Sym_core.verifier f g ~in_field:(Aggregation.in_range params.p) ~challenges ~parent:parent_u ~dist:dist_u
      ~a:a_u ~b:b_u
  in
  let decide v =
    Network.broadcast_consistent_at net root_bc v
    && Network.broadcast_consistent_at net index_bc v
    (* Every rho value this node relies on must name a vertex. *)
    && Bitset.fold (fun u acc -> acc && Aggregation.in_range n rho_u.(u)) (Graph.closed_neighborhood g v) true
    && check ~map:rho_u ~index:index_bc.(v) ~root:root_bc.(v) v
  in
  let accepted = Network.decide net decide in
  Outcome.of_cost ~accepted ~prover:prover.name (Network.cost net)

let run ?fault ?params ~seed g prover =
  Ids_obs.Obs.span "sym_dmam.run" (fun () -> run_body ?fault ?params ~seed g prover)

(* --- adversaries ------------------------------------------------------------ *)

let adversary_random_perm =
  { name = "adversary:random-perm";
    commit =
      (fun _params g ->
        let rng = Rng.create (Hashtbl.hash (Graph.encode g)) in
        commit_with_rho g (Perm.random_nonidentity rng (Graph.n g)));
    respond = respond_consistently
  }

let adversary_forged_sums =
  { name = "adversary:forged-sums";
    commit =
      (fun _params g ->
        let rng = Rng.create (Hashtbl.hash (Graph.encode g) lxor 0xf00) in
        commit_with_rho g (Perm.random_nonidentity rng (Graph.n g)));
    respond =
      (fun params g c challenges ->
        let r = respond_consistently params g c challenges in
        (* Force the root comparison to pass; the root's own Line-3 equation
           for b then fails. *)
        let root = c.root.(0) in
        let b = Array.copy r.b in
        b.(root) <- r.a.(root);
        { r with b })
  }

let adversary_identity =
  { name = "adversary:identity";
    commit = (fun _params g -> commit_with_rho g (Perm.identity (Graph.n g)));
    respond = respond_consistently
  }

let adversary_split_broadcast =
  { name = "adversary:split-broadcast";
    commit =
      (fun _params g ->
        let rng = Rng.create (Hashtbl.hash (Graph.encode g) lxor 0xabc) in
        split_root (commit_with_rho g (Perm.random_nonidentity rng (Graph.n g))));
    respond = respond_consistently
  }

(* --- analysis ---------------------------------------------------------------- *)

let acceptance_probability_exact params g rho =
  let f = params.field in
  let n = Graph.n g in
  let collisions = ref 0 in
  for i = 0 to params.p - 1 do
    let powers = Linear.powers f i ((n * n) + n) in
    if Sym_core.collides f g (rho : Perm.t :> int array) powers then incr collisions
  done;
  float_of_int !collisions /. float_of_int params.p

let best_adversary_bound ?(sample = 20) ~seed params g =
  List.fold_left
    (fun best rho -> Float.max best (acceptance_probability_exact params g rho))
    0.
    (Sym_core.candidates ~extra:sample ~seed (Graph.n g))
