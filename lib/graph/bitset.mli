(** Fixed-capacity sets over [0 .. capacity-1], in one of two
    representations behind the same interface:

    - {b dense}: packed bit words — O(capacity) memory, O(1) membership.
      The right shape for the adjacency rows of small or dense graphs,
      whose rows the hash protocols treat as characteristic vectors.
    - {b sparse}: a sorted element array — O(cardinal) memory, O(log
      cardinal) membership. The shape that lets a bounded-degree graph on a
      million vertices hold each adjacency row in O(degree) memory.

    Iteration ({!iter}, {!fold}, {!to_list}) is ascending for both, so any
    accumulation over a set is bit-identical across representations. *)

type t

val create : int -> t
(** [create capacity] is the empty {b dense} set over [0 .. capacity-1]. *)

val create_sparse : int -> t
(** [create_sparse capacity] is the empty {b sparse} set. *)

val create_like : t -> t
(** Empty set with the same capacity and representation as the argument. *)

val is_sparse : t -> bool

val sparse_elements : t -> int array
(** The element array of a sparse set, shared, not copied: its first
    [cardinal s] slots are the members in increasing order, and any later
    slots are unused. Read-only — writing to it corrupts the set — and
    only valid until the set is next modified.
    @raise Invalid_argument on a dense set. *)

val capacity : t -> int

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val cardinal : t -> int

val equal : t -> t -> bool
(** Equality of contents, across representations. Sets with different
    capacities are never equal (they are sets over different universes) —
    mismatched capacities answer [false] rather than raise, so
    [Graph.equal] on different-sized graphs is total. *)

val copy : t -> t
(** Preserves the representation. *)

val clear : t -> unit

val iter : (int -> unit) -> t -> unit
(** Iterates members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over members in increasing order. *)

val fold_right : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_right f s init] is [List.fold_right f (to_list s) init]: members
    in decreasing order, without building the list. *)

val to_list : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list capacity xs], dense. @raise Invalid_argument on out-of-range
    element. *)

val of_list_sparse : int -> int list -> t
(** [of_list xs] into a sparse set. *)

val union : t -> t -> t
(** Result takes the left operand's representation.
    @raise Invalid_argument on capacity mismatch (unlike {!equal}, there is
    no meaningful answer over different universes). *)

val inter : t -> t -> t
val subset : t -> t -> bool
val is_empty : t -> bool

val choose : t -> int option
(** Smallest member, or [None] if empty. *)

val pp : Format.formatter -> t -> unit
