(** Distributed evaluation of the Section 4 eps-API hash, end to end.

    The language is trivial — the prover claims [y = h_spec(G)] for the
    execution's own graph — but the protocol exercises exactly the
    tree-aggregability that Section 4 needs from the hash: Arthur draws the
    spec, Merlin commits to a BFS spanning tree, per-node subtree aggregates
    of the [k] inner row hashes, and the claimed hash; each node then checks
    its tree labels, recomputes its own row term from its O(degree) view,
    and verifies the Lemma 3.3 subtree equation, with the root applying the
    outer layer. Completeness is exact; a wrong claim or any tampered
    aggregate breaks an equation at some node.

    Every Merlin round returns only the copies the fault layer changed
    ({!Ids_network.Network.unicast_changes}), so an unfaulted round visits
    no node and an unfaulted run holds the advice and no per-node copies.
    Row terms come from split power tables of about [2 sqrt n] entries per
    point ({!Ids_hash.Linear.row_table}), evaluated one C call per node
    ({!Ids_hash.Linear.closed_row_terms}), so the protocol completes at
    n = 10⁶ with O(max degree) transient state per node — this is the
    scale exemplar benchmarked by [bench/scale] and [perfbench]. *)

type params = { q : int; field : int Ids_hash.Field.t; copies : int }

val params_for : ?k:int -> seed:int -> Ids_graph.Graph.t -> params
(** Modulus and copy count for a graph: a seeded random prime in
    [\[4 m^(3/2), 8 m^(3/2)\]] for [m = n² + n] — the least growth rate
    with [eps < 1] at [k = 3] — for every [m <= 2^40], else the largest
    prime below [2^62] (completeness holds for every [q]; see the
    DESIGN.md discussion). The field is {!Ids_hash.Field.int_field} below
    [2^31] and {!Ids_hash.Field.int62_field} above. [k] defaults to
    {!Ids_hash.Api.default_copies}.
    @raise Invalid_argument if [k < 1]. *)

val epsilon : params -> n:int -> float
(** The analytical eps-API bound for these parameters. *)

(** The prover's full message: spanning-tree labels, flattened n×k subtree
    aggregates ([agg.((v * copies) + i)] is copy [i] at node [v]), and the
    claimed hash. *)
type advice = {
  root : int;
  parent : int array;
  dist : int array;
  agg : int array;
  claim : int;
}

val honest_advice :
  ?domains:int -> ?chunk:int -> params -> int Ids_hash.Api.spec -> root:int -> Ids_graph.Graph.t -> advice
(** The honest message for a BFS tree rooted at [root]: one pass writes
    every node's [k] row terms into [agg], in ranges of [chunk] nodes
    (default 4096) on up to [domains] domains (default
    {!Ids_engine.Engine.default_domains}), then a leaves-first pass adds
    each node's vector into its parent's. The advice is the same for every
    [domains] and [chunk]; a graph of at most [chunk] nodes spawns no
    domain.
    @raise Invalid_argument if the graph is disconnected or [chunk < 1]. *)

type prover = params -> int Ids_hash.Api.spec -> root:int -> Ids_graph.Graph.t -> advice

val honest : prover
(** {!honest_advice} at its default domain count. *)

val adversary_wrong_claim : prover
(** Honest advice with the claimed hash shifted: rejected with
    probability 1 (the root's finalize equation). *)

val adversary_corrupt_agg : int -> prover
(** Honest advice with the named node's first inner aggregate shifted:
    rejected with probability 1 (a subtree equation at that node or its
    parent). *)

val response_bits_per_node : int Ids_hash.Field.t -> k:int -> int -> int
(** Prover bits each node receives across all Merlin rounds:
    [Theta(k log n)]. *)

val run :
  ?fault:Ids_network.Fault.spec ->
  ?prover:prover ->
  ?k:int ->
  ?domains:int ->
  ?chunk:int ->
  seed:int ->
  root:int ->
  Ids_graph.Graph.t ->
  Outcome.t
(** One execution on a connected graph: spec challenge (only the root's
    draw is generated), spec / claim / root broadcasts, tree-label and
    aggregate unicasts, then every node's local verification under
    {!Ids_network.Network.verdict}, in ranges of [chunk] nodes on up to
    [domains] domains (defaults as {!honest_advice}, which is the default
    prover, given the same two). Deterministic in [seed], and the same for
    every [domains] and [chunk]; the fault layer applies to every round.
    @raise Invalid_argument if [root] is out of range or [chunk < 1]. *)
