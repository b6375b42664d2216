(** The Lemma 3.1 automorphism check shared by Protocol 1 ({!Sym_dmam}),
    Protocol 2 ({!Sym_dam}) and the DSym protocol ({!Dsym}).

    All three test that a mapping [map : V -> V] is an automorphism the
    same way: hash the rows [\[v, N(v)\]] and [\[map(v), map(N(v))\]] with
    Theorem 3.2's linear family at one index, sum both up a
    Korman–Kutten–Peleg spanning tree ({!Aggregation}, Lemma 3.3), and
    compare the two sums at the root (Lemma 3.1). They differ only in when
    [map] is fixed — committed before the challenge (Protocol 1), broadcast
    after it (Protocol 2) or public (DSym) — and in the prime; those parts
    stay in each protocol.

    Note on Line 3: the paper's text defines the [b]-row via the images of
    the node's {e children}; as the proof of Lemma 3.3 makes clear, the row
    of the permuted matrix [rho(A_G)] owned by [v] is
    [\[rho(v), rho(N(v))\]], computable because [v] sees [rho_u] for every
    neighbor [u]. We implement that (mathematically consistent) version.

    A map is an [int array] with [map.(v)] the image of [v]; a
    {!Ids_graph.Perm.t} passes as [(sigma :> int array)] without a copy.
    Everything is generic in the field carrier: [Nat.t] for Protocol 2,
    [int] for the others. *)

val image : n:int -> int array -> Ids_graph.Bitset.t -> Ids_graph.Bitset.t
(** [image ~n map s] is [map(s)], as a dense set of capacity [n]. *)

val moved_root : int array -> int
(** The root a consistent prover uses: the first vertex the map moves
    (vertex 0 if it moves none). *)

val fallback : int -> Ids_graph.Perm.t
(** The transposition [(0 1)] on [n] vertices — the honest prover's losing
    but well-formed move on asymmetric graphs. *)

val honest_map : Ids_graph.Graph.t -> Ids_graph.Perm.t
(** A non-trivial automorphism found by exact search, or {!fallback}. *)

val sums :
  'e Ids_hash.Field.t -> Ids_graph.Graph.t -> Ids_graph.Spanning_tree.t -> index:'e -> int array ->
  'e array * 'e array
(** [sums f g tree ~index map] is the honest [(a, b)]: every node's true
    subtree sums of the [A_G] and [map(A_G)] row hashes at [index], from
    one {!Ids_hash.Linear.powers} table. *)

val verifier :
  'e Ids_hash.Field.t -> Ids_graph.Graph.t -> in_field:('e -> bool) -> challenges:'e array ->
  parent:int array -> dist:int array -> a:'e array -> b:'e array ->
  map:int array -> index:'e -> root:int -> int -> bool
(** The node check of one execution over the unicast labels and sums, with
    one power table per distinct index. At node [v], given its view of the
    map (every entry [v] reads must name a vertex), the echoed [index] and
    the claimed [root]: range checks ([root] a vertex; [index], [a.(v)],
    [b.(v)] pass [in_field]), the spanning-tree labels
    ({!Aggregation.tree_check}), both subtree equations of Line 3, and at
    the root [a_r = b_r], [map(r) <> r] and that [index] is its own
    challenge. Equality goes through [f.equal]. *)

val collides : 'e Ids_hash.Field.t -> Ids_graph.Graph.t -> int array -> 'e array -> bool
(** [collides f g map powers]: do [A_G] and [map(A_G)] hash alike at the
    index whose power table is [powers]? *)

val candidates : extra:int -> seed:int -> int -> Ids_graph.Perm.t list
(** The cheats the soundness searches scan: every transposition [(u w)],
    [u < w], in lexicographic order, then [extra] non-identity permutations
    drawn from [Rng.create seed]. *)
