(** Execution context for interactive distributed proofs.

    A protocol execution alternates Arthur rounds (every node independently
    draws a random challenge and sends it to the prover) and Merlin rounds
    (the prover answers each node, by unicast or broadcast). This module
    simulates those exchanges over a network graph while charging every bit
    to the {!Cost} ledger, and implements the model's two response
    disciplines from Section 2.2 of the paper:

    - {b unicast}: the prover may give a different value to each node;
    - {b broadcast}: the prover must give all nodes the same value, enforced
      distributively — each node compares its copy with its neighbors' copies
      and rejects on mismatch (on a connected graph, any non-constant
      assignment is caught by some edge).

    The prover is just caller code: honest provers compute what the protocol
    prescribes, adversarial provers may supply arbitrary arrays.

    {2 Fault injection}

    [create ?fault] threads a {!Fault.spec} through every channel primitive:
    messages can be dropped (the expecting node rejects, or receives the
    round's [on_drop] default), corrupted (via the round's [corrupt] hook),
    nodes can crash-silently, and broadcasts can be equivocated at a keyed
    victim node. Each channel operation is one fault {e round}; decisions are
    keyed by [(seed, round, node)], so faulted runs are deterministic in the
    trial seed. A [None] or {!Fault.none} spec is exactly the un-faulted
    path, and the cost ledger always records what the prover transmitted,
    delivered or not. *)

type t

val create : ?fault:Fault.spec -> seed:int -> Ids_graph.Graph.t -> t
(** Fresh execution over the given network graph. The seed determines all of
    Arthur's randomness and, independently, every fault decision. *)

val graph : t -> Ids_graph.Graph.t
val n : t -> int
val cost : t -> Cost.t
val rng : t -> Ids_bignum.Rng.t

val current_round : t -> int
(** Number of channel operations (challenge / unicast / broadcast rounds)
    executed so far; the round index {!Ids_obs.Obs} metrics and spans are
    labeled with. Starts at 0, first operation is round 1. *)

val fault_spec : t -> Fault.spec
(** The active fault spec ({!Fault.none} when no faults are injected). *)

val crashed : t -> int -> bool
(** Did this execution's fault layer crash node [v]? *)

val missed : t -> int -> bool
(** Has node [v] missed a message (dropped with no [on_drop] default) so
    far? Such a node rejects at {!decide} time. *)

val take_missed : t -> bool array
(** Snapshot the per-node missed flags and clear them. For protocols that
    run many repetitions over one execution ({!val:decide} consults the
    {e live} flags, which otherwise accumulate): folding the snapshot into
    repetition [i]'s per-node verdicts scopes a drop to the repetition it
    occurred in instead of poisoning every later one, and leaves the flags
    clean for the final {!val:decide} over the aggregated verdicts. *)

val challenge : t -> bits:int -> (Ids_bignum.Rng.t -> 'c) -> 'c array
(** Arthur round: every node draws an independent challenge with the given
    generator and is charged [bits] towards the prover. Under faults, a
    dropped challenge marks the sending node as missed (it rejects: the
    prover never saw its challenge, so no transcript involving it is
    valid). Delivery failure is modeled purely as that decide-time
    rejection — the drawn value is still present in the returned array and
    observable by prover code; soundness must not rely on hiding it. *)

val challenge_at : t -> bits:int -> node:int -> (Ids_bignum.Rng.t -> 'c) -> 'c
(** Arthur round in which only one node's draw is ever read (a shared
    challenge such as the root's): [challenge_at t ~bits ~node gen] is
    [(challenge t ~bits gen).(node)] with the same charges, the same fault
    decisions and missed flags at every node, and the execution generator
    left in the same state — but [gen] runs once, and the other nodes'
    splits only advance the stream ({!Ids_bignum.Rng.skip}).
    @raise Invalid_argument if [node] is out of range. *)

val unicast : t -> ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) -> ?on_drop:'r -> bits:int -> 'r array -> 'r array
(** Merlin unicast round: the prover supplies one value per node; every node
    is charged [bits] received. Under faults, each delivery can corrupt (via
    [corrupt], see {!Fault}'s ready-made hooks) or drop ([on_drop] default,
    else the node rejects). @raise Invalid_argument on length mismatch. *)

val unicast_varbits :
  t -> ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) -> ?on_drop:'r -> bits:(int -> int) -> 'r array -> 'r array
(** Like {!unicast} with a per-node bit cost. *)

val broadcast : t -> ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) -> ?on_drop:'r -> bits:int -> 'r array -> 'r array
(** Merlin broadcast round: like {!unicast}, but the values are expected to
    be all equal; use {!broadcast_consistent_at} in the verification phase to
    apply the paper's neighbor-comparison check. Under an equivocating fault
    spec, one keyed victim node's copy is additionally corrupted ([corrupt]
    hook required) — the attack the consistency check exists to catch. *)

val broadcast_uniform : t -> ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) -> ?on_drop:'r -> bits:int -> 'r -> 'r array
(** Honest broadcast: replicate one value to all nodes and charge it. *)

val broadcast_consistent_at : ?equal:('r -> 'r -> bool) -> t -> 'r array -> int -> bool
(** [broadcast_consistent_at t values v] is the local broadcast check at
    node [v]: its copy equals every (non-crashed) neighbor's copy.

    [equal] defaults to polymorphic equality — correct for the immediate
    payloads used here (ints, flat int arrays, normalized {!Ids_bignum.Nat}
    values), but a silent trap for any abstract numeric type whose values
    can be structurally distinct yet semantically equal (e.g. an
    un-normalized bignum, a hash-consed value, anything cached or lazy).
    Pass the payload's own equality ([Nat.equal], ...) whenever one exists:
    a structural mismatch between semantically equal copies would make an
    honest broadcast look like an equivocation and destroy completeness. *)

(** {2 Streamed per-node views}

    The array primitives above hold one slot per node for the whole round;
    at n = 10⁶ that is the difference between O(n) resident protocol state
    and none at all. The folds below visit nodes [0 .. n-1] in order, build
    each node's {!node_view} on demand and release it before the next node:
    the view's [neighbors] field is the graph's own row (shared, never
    copied), so resident memory per in-flight node is O(degree) for
    sparse-backed graphs. Fault decisions come from streams keyed by
    [(seed, round, node)], exactly as in the array primitives, so a protocol computing the same function over
    a streamed round is bit-identical to its array form (pinned by the
    equivalence tests). *)

type 'c node_view = {
  node : int;
  degree : int;
  neighbors : Ids_graph.Bitset.t;  (** The graph's own row; do not mutate. *)
  value : 'c;  (** This node's delivered payload. *)
  dropped : bool;  (** The fault layer dropped this node's message. *)
}

val view : t -> int -> unit node_view
(** On-demand view of one node, outside any channel round. *)

val fold_views : t -> init:'a -> ('a -> unit node_view -> 'a) -> 'a
(** Fold the pure views of all nodes in ascending order; no channel round,
    no charge, no rng consumption. *)


val unicast_fold :
  t ->
  ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) ->
  ?on_drop:'r ->
  bits:int ->
  respond:(int -> 'r) ->
  init:'a ->
  ('a -> 'r node_view -> 'a) ->
  'a
(** Streamed Merlin unicast round: [respond v] produces node [v]'s message
    on demand (the prover side of the stream), the fault layer applies per
    node, and the delivered value reaches the fold in the view. With no
    [on_drop], a dropped node is marked missed and its view carries the
    undelivered value with [dropped = true]. *)

val broadcast_fold :
  t ->
  ?corrupt:(Ids_bignum.Rng.t -> 'r -> 'r) ->
  ?on_drop:'r ->
  bits:int ->
  'r ->
  init:'a ->
  ('a -> 'r node_view -> 'a) ->
  'a
(** Streamed honest broadcast: one value replicated to every node (the
    moral equivalent of {!broadcast_uniform}), fault layer included —
    drop/corrupt per node plus the equivocation victim when the spec
    equivocates. *)

val verdict : t -> (int -> bool) -> int -> bool
(** [verdict t out v] is node [v]'s share of {!decide}: [false] if [v]
    missed a message, [out v] otherwise — except that a crashed node never
    runs [out] and counts as accepting only under {!Fault.Crash_vacuous}.
    Reads the network without changing it, so disjoint node ranges may be
    judged on separate domains once every round has run. *)

val decide : t -> (int -> bool) -> bool
(** [decide t out] runs the local decision [out v] at every node and accepts
    iff all nodes accept (the paper's global acceptance rule). Nodes that
    missed a message reject. Crashed nodes never run [out]: they count as
    rejecting under {!Fault.Crash_reject} and are skipped under
    {!Fault.Crash_vacuous}. Equal to the conjunction of {!verdict} over
    all nodes. *)
