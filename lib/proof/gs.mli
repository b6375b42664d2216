(** The distributed Goldwasser–Sipser set-size lower bound shared by the
    three Graph Non-Isomorphism protocols: {!Gni} (Section 4, Theorem 1.5),
    {!Gni_full} (the automorphism-compensated set of [15]) and
    {!Gni_induced} (the Section 2.3 marked-subgraph formulation).

    Each variant is a {!set}: a set [S] whose size is [2 |S_1|] on YES
    instances and [|S_1|] on NO instances, an encoding of its elements as a
    {!witness} (a bit [b] plus broadcast permutation tables), the rows of
    the hashed 0/1 matrix each node owns under a witness, and the per-node
    audit terms checked after the commitment. This module runs the protocol
    over any such set.

    {2 One repetition (the A-M-A-M pattern)}

    + {b Arthur} — every node draws a candidate hash spec for the
      {!Ids_hash.Api} family (inner evaluation points, outer coefficients)
      and a candidate target [y in [q]]; the tree root's will bind.
    + {b Merlin} — commits: broadcasts the root [r], an echo of [r]'s spec
      and target (each node checks the echo against its own draw when it is
      the root), the bit [b], the witness's permutation tables (for {!Gni}
      the full permutation [sigma]) and the spanning-tree labels — claiming
      that the hashed matrix of the witnessed element of [S] hashes to [y].
      When no preimage exists the honest prover signals a miss.
    + {b Arthur} — every node draws a fresh {e audit} point for a second,
      post-commitment linear hash of the committed matrix.
    + {b Merlin} — reveals the subtree aggregates of the inner hash vector
      and of each audit hash, up the spanning tree.

    Each node recomputes its own rows' contribution (for {!Gni}, row
    [sigma(v)] of [A_{sigma(G_b)}] with content [sigma(N_b(v))]), all
    computable locally from the broadcast tables, checks that every table
    is a permutation, checks the aggregation equations, and the root checks
    that the outer layer of the aggregate equals [y] and that all audit
    aggregates agree. Every message is [O(n log n)] bits ([q = Theta(|S|)],
    so one field element is [Theta(n log n)] bits; a table is [n log n]
    bits).

    The conference paper does not spell out which values travel in which of
    the four rounds; DESIGN.md documents the substitution above. The audit
    round preserves the paper's A-M-A-M pattern and adds a post-commitment
    consistency hash; soundness rests on the deterministic aggregate checks
    plus the root's target equation, exactly as in the GS analysis.

    {2 Amplification}

    With [q] a prime in [\[4 |S_1|, 8 |S_1|\]] and the {!Ids_hash.Api}
    parameters, one repetition accepts with probability at least
    [(2 |S_1|/q)(1 - (1+eps)/4)] on YES instances and at most [|S_1|/q]
    (plus the variant's audit-escape term) on NO instances. The full
    protocol runs [t] independent repetitions and each node accepts iff at
    least [tau t] of them looked valid locally; the root's count is the
    sound one (only it verifies the target equation). The default [t] puts
    both error probabilities below 1/3 (Definition 2).

    {2 Faults}

    [?fault] injects faults into every channel round of every repetition
    (see {!Ids_network.Fault}): a dropped message (or challenge) invalidates
    the affected node for exactly the repetition it occurred in, so
    completeness degrades with the drop rate, while crashed nodes are
    judged once at the final decision per the spec's crash mode
    ({!Ids_network.Fault.Crash_reject} forces rejection, [Crash_vacuous]
    skips their counts). Without a fault spec both runs decide by the plain
    conjunction of the nodes' verdicts. *)

type rows = (int * Ids_graph.Bitset.t) list
(** Nonzero rows [(index, content)] of a hashed 0/1 matrix. *)

(** {1 Messages} *)

type challenge = { specs : int Ids_hash.Api.spec array; targets : int array }

type commit = {
  miss : bool array;  (** broadcast *)
  b : int array;  (** broadcast *)
  tables : int array array list;  (** one broadcast per witness table *)
  root : int array;  (** broadcast *)
  spec_echo : int Ids_hash.Api.spec array;  (** broadcast *)
  target_echo : int array;  (** broadcast *)
  parent : int array;  (** unicast *)
  dist : int array;  (** unicast *)
}

type reveal = {
  audit_echo : int array;  (** broadcast *)
  agg : int array array;  (** unicast: [k] inner aggregates per node *)
  audit_aggs : int array list;  (** unicast: one aggregate per audit term *)
}

(** {1 Sets} *)

type witness = { b : int; tables : int array list }
(** An element of [S]: the side [b] and its permutation tables. *)

val table_pair : witness -> int array * int array
(** The two tables of a witness. @raise Invalid_argument otherwise. *)

type candidate = { witness : witness; rows : (int * Ids_graph.Bitset.t) array }
(** An element of [S] with the rows of its hashed matrix, precomputed for
    the unbounded prover's preimage search. *)

val candidate : n:int -> (witness -> int -> rows) -> witness -> candidate
(** [candidate ~n own_rows w] collects [own_rows w v] over all nodes. *)

val distinct : candidate Seq.t -> candidate array
(** The first candidate of each distinct hashed matrix, in order: the
    elements of [S] are matrices, onto which witnesses map many-to-one. *)

type 'i set = {
  span : string;  (** span prefix of {!run_single} and {!run} *)
  salt : int;  (** mixed into the seed that draws [q] *)
  graph : 'i -> Ids_graph.Graph.t;  (** the network *)
  width : 'i -> int;  (** columns of the hashed matrix *)
  size : 'i -> int;  (** [|S|] on NO instances *)
  no_extra : 'i -> int;
      (** numerator of the NO-side audit-escape term (over [q]); 0 when the
          audit is not load-bearing *)
  table_count : int;  (** permutation tables per witness *)
  candidates : 'i -> candidate array Lazy.t;
      (** every element of [S], in search order; forced by the first search *)
  own_rows : 'i -> witness -> int -> rows;  (** the rows node [v] owns *)
  audits : int;  (** audit terms per node *)
  audit_terms : 'i -> int Ids_hash.Field.t -> int -> witness -> int -> int array;
      (** [audit_terms inst field point w v]: node [v]'s [audits] terms at
          the audit point; the root accepts only if their aggregates agree *)
}

type params = {
  q : int;  (** hash range: a prime in [\[4 |S|, 8 |S|\]] *)
  field : int Ids_hash.Field.t;
  copies : int;  (** inner copies [k] of the API hash *)
  repetitions : int;
  threshold : int;  (** per-node acceptance count *)
  set_size : int;  (** [|S|] on NO instances *)
  yes_bound : float;  (** analytical single-repetition YES lower bound *)
  no_bound : float;  (** analytical single-repetition NO upper bound *)
}

val params_for : 'i set -> ?repetitions:int -> seed:int -> 'i -> params
(** [q] is drawn from [seed lxor salt]; the bounds follow the GS analysis
    with an eps-API hash over [width] columns. *)

(** {1 Provers} *)

type 'i prover = {
  name : string;
  commit : params -> 'i -> challenge -> commit;
  reveal : params -> 'i -> challenge -> commit -> int array -> reveal;
}

val preimage : params -> width:int -> challenge -> candidate Seq.t -> witness option
(** The first candidate whose rows hash to the root's target under the
    root's spec (the spec's power tables are built once per call). *)

val search : 'i set -> params -> 'i -> challenge -> witness option
(** The honest preimage search of the root's target over [candidates]. *)

val commit : 'i set -> 'i -> challenge -> witness option -> commit
(** Commit to a witness ([None] signals a miss) on the BFS tree rooted at
    node 0, echoing that root's challenge. *)

val honest : 'i set -> 'i prover

(** {1 Helpers for the automorphism-compensated sets} *)

val stacked_rows : n:int -> int array -> int array -> int -> Ids_graph.Bitset.t -> rows
(** [stacked_rows ~n sigma alpha v nb]: node [v]'s rows of the [2n x n]
    stack of an embedded adjacency matrix and the permutation matrix of
    [sigma alpha sigma^(-1)] — [(sigma(v), sigma(nb))] and
    [(n + sigma(v), {sigma(alpha(v))})]. *)

val lemma31_terms :
  int Ids_hash.Field.t -> int -> n:int -> int array -> int -> Ids_graph.Bitset.t -> int array
(** [lemma31_terms f point ~n alpha v nb]: the two sides of Lemma 3.1's
    check [sum_v \[v, N(v)\] = sum_v \[alpha(v), alpha(N(v))\]] at node
    [v], under the linear hash at [point]. *)

(** {1 Execution} *)

val run_single :
  'i set -> ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> 'i -> 'i prover -> Outcome.t
(** One repetition; [accepted] means all nodes found it locally valid (a
    "hit"). Used to measure the single-repetition acceptance rates that the
    GS analysis predicts. *)

val run :
  'i set -> ?fault:Ids_network.Fault.spec -> ?params:params -> seed:int -> 'i -> 'i prover -> Outcome.t
(** The full amplified protocol: [params.repetitions] repetitions, per-node
    counting, global accept iff every node's count reaches the threshold. *)
