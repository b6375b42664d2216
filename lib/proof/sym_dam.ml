module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Bits = Ids_network.Bits
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Nat = Ids_bignum.Nat
module Rng = Ids_bignum.Rng

type params = { p : Nat.t; field : Nat.t Field.t }

let params_for ~seed g =
  let n = max 2 (Graph.n g) in
  let rng = Rng.create (seed lxor 0x2a17) in
  let bound = Precomp.power_bound n (n + 2) in
  let p =
    Ids_bignum.Prime.random_prime_in rng (Nat.mul_int bound 10) (Nat.mul_int bound 100)
  in
  { p; field = Field.nat_field p }

type response = {
  rho : int array array;
  index : Nat.t array;
  root : int array;
  parent : int array;
  dist : int array;
  a : Nat.t array;
  b : Nat.t array;
}

type prover = { name : string; respond : params -> Graph.t -> Nat.t array -> response }

let respond_with_rho params g challenges rho =
  let n = Graph.n g in
  let tree = Precomp.tree g (Sym_core.moved_root rho) in
  let index = challenges.(tree.Spanning_tree.root) in
  let a, b = Sym_core.sums params.field g tree ~index rho in
  { rho = Array.make n rho;
    index = Array.make n index;
    root = Array.make n tree.Spanning_tree.root;
    parent = Array.copy tree.Spanning_tree.parent;
    dist = Array.copy tree.Spanning_tree.dist;
    a;
    b
  }

let honest =
  { name = "honest";
    respond =
      (fun params g challenges -> respond_with_rho params g challenges (Sym_core.honest_map g :> int array))
  }

let run_body ?fault ?params ~seed g prover =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Sym_dam.run: need at least 2 nodes";
  let params = match params with Some p -> p | None -> params_for ~seed g in
  let f = params.field in
  let net = Network.create ?fault ~seed g in
  let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id n) in
  let nat_corrupt = Fault.flip_nat_bit ~bits:f.Field.bits in
  (* Arthur round. *)
  let challenges = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  (* Merlin round. *)
  let r = prover.respond params g challenges in
  let rho_bc = Network.broadcast net ~corrupt:Fault.swap_entries ~bits:(Bits.perm n) r.rho in
  let index_bc = Network.broadcast net ~corrupt:nat_corrupt ~bits:f.Field.bits r.index in
  let root_bc = Network.broadcast net ~corrupt:id_corrupt ~bits:(Bits.id n) r.root in
  let parent_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) r.parent in
  let dist_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) r.dist in
  let a_u = Network.unicast net ~corrupt:nat_corrupt ~bits:f.Field.bits r.a in
  let b_u = Network.unicast net ~corrupt:nat_corrupt ~bits:f.Field.bits r.b in
  let check =
    Sym_core.verifier f g ~in_field:(fun x -> Nat.compare x params.p < 0) ~challenges ~parent:parent_u
      ~dist:dist_u ~a:a_u ~b:b_u
  in
  let decide v =
    Network.broadcast_consistent_at net rho_bc v
    (* Nat values are normalized, so structural and numeric equality agree —
       but state the intent explicitly rather than ride on that invariant. *)
    && Network.broadcast_consistent_at ~equal:Nat.equal net index_bc v
    && Network.broadcast_consistent_at net root_bc v
    &&
    let rho = rho_bc.(v) in
    Array.length rho = n
    && Array.for_all (Aggregation.in_range n) rho
    && check ~map:rho ~index:index_bc.(v) ~root:root_bc.(v) v
  in
  let accepted = Network.decide net decide in
  Outcome.of_cost ~accepted ~prover:prover.name (Network.cost net)

let run ?fault ?params ~seed g prover =
  Ids_obs.Obs.span "sym_dam.run" (fun () -> run_body ?fault ?params ~seed g prover)

(* --- adversaries ------------------------------------------------------------ *)

let search_table ?(extra = 20) ~seed params g challenges =
  let n = Graph.n g in
  (* The root the consistent strategy will use is the first vertex the
     mapping moves, so test the collision under that root's challenge.
     At most n distinct roots arise over all candidates, so memoize the
     power tables by challenge index. *)
  let powers_of = Linear.powers_memo params.field ((n * n) + n) in
  let winning table =
    Sym_core.collides params.field g table (powers_of challenges.(Sym_core.moved_root table))
  in
  let tables = List.map (fun rho -> (rho : Perm.t :> int array)) (Sym_core.candidates ~extra ~seed n) in
  Option.value (List.find_opt winning tables) ~default:(Sym_core.fallback n :> int array)

let adversary_search =
  { name = "adversary:search";
    respond =
      (fun params g challenges ->
        let seed = Hashtbl.hash (Graph.encode g) lxor 0x9e1 in
        respond_with_rho params g challenges (search_table ~seed params g challenges))
  }

let adversary_random_perm =
  { name = "adversary:random-perm";
    respond =
      (fun params g challenges ->
        let rng = Rng.create (Hashtbl.hash (Graph.encode g) lxor 0x77) in
        let table = Perm.to_array (Perm.random_nonidentity rng (Graph.n g)) in
        respond_with_rho params g challenges table)
  }
