(** Per-node communication ledger.

    Records, for every network node, the bits it sent to the prover
    (challenges) and the bits it received from the prover (responses). The
    paper's protocol length is the maximum over nodes of the per-node total;
    lower bounds do not charge challenge bits, so the two directions are kept
    separate.

    A charge every node receives alike ({!charge_all_to_prover},
    {!charge_all_from_prover}) is kept as one scalar per direction; the
    per-node arrays are built on the first per-node charge, so a ledger
    that only ever saw uniform rounds holds O(1) state. *)

type t

val create : int -> t
(** [create n] is a fresh ledger for an [n]-node network. *)

val n : t -> int

val charge_to_prover : t -> int -> int -> unit
(** [charge_to_prover c v bits] records [bits] sent by node [v].
    Raises [Invalid_argument] if [bits < 0]. *)

val charge_from_prover : t -> int -> int -> unit
(** [charge_from_prover c v bits] records [bits] received by node [v].
    Raises [Invalid_argument] if [bits < 0]. *)

val charge_all_from_prover : t -> int -> unit
(** Charge the same number of received bits to every node (broadcast). *)

val charge_all_to_prover : t -> int -> unit
(** Charge the same number of sent bits to every node (an unfaulted
    challenge round). Raises [Invalid_argument] if [bits < 0]. *)

val to_prover : t -> int -> int
val from_prover : t -> int -> int

val node_total : t -> int -> int

val max_per_node : t -> int
(** The paper's length measure: maximum over nodes of the per-node total. *)

val max_from_prover : t -> int
(** Maximum over nodes of response bits only (the measure the lower bound
    charges). *)

val total : t -> int
(** Total communication over the whole network. *)

val equal : t -> t -> bool
(** Same [n] and the same {!to_prover} and {!from_prover} at every node,
    however the charges were split between uniform and per-node rounds.
    Use this rather than structural [=], which sees that split. *)

val pp : Format.formatter -> t -> unit
