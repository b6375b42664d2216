module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Perm = Ids_graph.Perm
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Rng = Ids_bignum.Rng

let image ~n map s =
  let out = Bitset.create n in
  Bitset.iter (fun u -> Bitset.add out map.(u)) s;
  out

let moved_root map =
  let rec moved v = if v >= Array.length map then 0 else if map.(v) <> v then v else moved (v + 1) in
  moved 0

let fallback n = Perm.transposition n 0 (min 1 (n - 1))

let honest_map g = Option.value (Precomp.nontrivial_automorphism g) ~default:(fallback (Graph.n g))

(* Node [v]'s row of A_G and of map(A_G), hashed under one power table. *)
let terms f ~powers ~n map v nb =
  ( Linear.row_hash_pow f ~powers ~n ~row:v nb,
    Linear.row_hash_pow f ~powers ~n ~row:map.(v) (image ~n map nb) )

let sums f g tree ~index map =
  let n = Graph.n g in
  (* One power table for the shared index replaces a modular exponentiation
     per row term in both sums. *)
  let powers = Linear.powers f index ((n * n) + n) in
  let t = Array.init n (fun v -> terms f ~powers ~n map v (Graph.closed_neighborhood g v)) in
  let sum pick = Aggregation.honest_sums f tree ~term:(fun v -> pick t.(v)) in
  (sum fst, sum snd)

let verifier f g ~in_field ~challenges ~parent ~dist ~a ~b =
  let n = Graph.n g in
  let powers_of = Linear.powers_memo f ((n * n) + n) in
  fun ~map ~index ~root v ->
    Aggregation.in_range n root && in_field index && in_field a.(v) && in_field b.(v)
    && Aggregation.tree_check g ~root ~parent ~dist v
    &&
    let own_a, own_b = terms f ~powers:(powers_of index) ~n map v (Graph.closed_neighborhood g v) in
    let children = Aggregation.children g ~parent v in
    Aggregation.subtree_equation f ~own:own_a ~claimed:a ~children v
    && Aggregation.subtree_equation f ~own:own_b ~claimed:b ~children v
    && (v <> root || (f.Field.equal a.(v) b.(v) && map.(v) <> v && f.Field.equal index challenges.(v)))

let collides f g map powers =
  let n = Graph.n g in
  let ha = ref f.Field.zero and hb = ref f.Field.zero in
  for v = 0 to n - 1 do
    let a, b = terms f ~powers ~n map v (Graph.closed_neighborhood g v) in
    ha := f.Field.add !ha a;
    hb := f.Field.add !hb b
  done;
  f.Field.equal !ha !hb

let candidates ~extra ~seed n =
  let rng = Rng.create seed in
  let after u = List.init (n - u - 1) (fun k -> Perm.transposition n u (u + k + 1)) in
  List.concat (List.init n after) @ List.init extra (fun _ -> Perm.random_nonidentity rng n)
