(** The linear hash family of Theorem 3.2.

    For a prime [p] the family [H = { h_a | a in [p] }] hashes boolean
    vectors [x] of length [m] by polynomial evaluation:

    {v h_a(x) = sum_j x_j a^(j+1)  (mod p) v}

    It is linear — [h_a(x + x') = h_a(x) + h_a(x')] with coordinatewise sums
    taken mod [p] — and two distinct vectors collide with probability at most
    [m / p] over a uniform index [a], because their difference is a non-zero
    polynomial in [a] of degree at most [m] (Schwartz–Zippel).

    The protocols hash [n x n] boolean matrices (so [m = n^2 + n] with the
    convenient 1-based exponents), writing a matrix as the sum of its rows
    [\[v, r\]] (the matrix that is [r] in row [v] and zero elsewhere,
    Section 3.1.1). Row [v] occupies coordinates [v*n .. v*n + n - 1], hence

    {v h_a([v, r]) = a^(v*n) * sum_{w in r} a^(w+1) v}

    which a network node can evaluate locally from its own neighborhood. *)

val row_poly : 'a Field.t -> 'a -> Ids_graph.Bitset.t -> 'a
(** [row_poly f a s] is [sum_{w in s} a^(w+1)]: the hash of the row content
    [s] before the row-position shift. *)

val row_hash : 'a Field.t -> 'a -> n:int -> row:int -> Ids_graph.Bitset.t -> 'a
(** [row_hash f a ~n ~row s] is [h_a(\[row, s\])] for an [n x n] matrix. *)

val matrix_hash : 'a Field.t -> 'a -> n:int -> (int * Ids_graph.Bitset.t) list -> 'a
(** Hash of a sum of rows: [sum h_a(\[v, s\])] over the listed [(v, s)]
    pairs. Duplicate row indices are allowed (the matrix sum is over the
    field, exactly as in Lemma 3.1). *)

val graph_hash : 'a Field.t -> 'a -> Ids_graph.Graph.t -> 'a
(** [graph_hash f a g] hashes the full adjacency matrix
    [sum_v \[v, N(v)\]] of [g] (closed neighborhoods). *)

val permuted_graph_hash : 'a Field.t -> 'a -> Ids_graph.Graph.t -> Ids_graph.Perm.t -> 'a
(** [permuted_graph_hash f a g rho] hashes
    [sum_v \[rho(v), rho(N(v))\]] — the rho-permuted adjacency matrix of
    Lemma 3.1. Equal to [graph_hash f a g] for every [a] iff [rho] is an
    automorphism (and with high probability only then). *)

val collision_bound : n:int -> p:int -> float
(** The Theorem 3.2 guarantee [m / p] for [n x n] matrices ([m = n^2 + n]). *)

(** {1 Batched evaluation}

    Exact soundness analysis evaluates the same hash at every index of the
    family, which is much faster with a precomputed power table. *)

val powers : 'a Field.t -> 'a -> int -> 'a array
(** [powers f a m] is [\[| a^0; a^1; ...; a^m |\]]. *)

val powers_memo : 'a Field.t -> int -> 'a -> 'a array
(** [powers_memo f m] is a caching [fun a -> powers f a m]: one table per
    distinct index, shared across calls. The cache is a plain hash table —
    use one memo per execution, not across domains. *)

val row_hash_pow : 'a Field.t -> powers:'a array -> n:int -> row:int -> Ids_graph.Bitset.t -> 'a
(** {!row_hash} using a table from [powers] (of length at least [n^2+n+1]). *)

val graph_hash_pow : 'a Field.t -> powers:'a array -> Ids_graph.Graph.t -> 'a

val permuted_graph_hash_pow :
  'a Field.t -> powers:'a array -> Ids_graph.Graph.t -> Ids_graph.Perm.t -> 'a

(** {1 Split power tables}

    The distributed scale path evaluates {!row_hash} at every node of an
    n-node graph for a handful of fixed points. A full {!powers} table per
    point costs O(n) words (O(n²) for the [a^(row·n)] shifts); a split
    table answers any [a^e] with [e <= m] from about [2 sqrt m] entries and
    one multiplication. *)

type 'a split
(** Powers [a^0 .. a^m] of one point, stored as [small.(j) = a^j] for
    [j < 2^s] and [big.(i) = (a^(2^s))^i] for [i <= m lsr s], with the
    smallest [s] such that [2^(2s) > m]. *)

val split_powers : 'a Field.t -> 'a -> int -> 'a split
(** [split_powers f a m] tabulates [a^e] for [0 <= e <= m].
    @raise Invalid_argument if [m < 0]. *)

val split_pow : 'a Field.t -> 'a split -> int -> 'a
(** [split_pow f t e] is [a^e] (one multiplication); [e] must lie in the
    table's range [\[0, m\]]. Results are canonical field elements, equal
    to [f.pow_int a e] for a canonical [a]. *)

type 'a row_table
(** The two split tables a row hash needs at one point [a] for [n x n]
    matrices: [a^e] for column exponents [e <= n], and [(a^n)^row] for the
    row shifts [row <= n - 1]. *)

val row_table : 'a Field.t -> 'a -> n:int -> 'a row_table
(** @raise Invalid_argument if [n < 1]. *)

type 'a closed_rows
(** An evaluator of closed-neighbourhood row terms at several points at
    once, with its scratch allocated up front: one per domain, reused for
    every row of a pass. *)

val closed_rows : 'a Field.t -> 'a row_table array -> 'a closed_rows
(** An evaluator for the points of the given tables, in order. *)

val closed_row_terms : 'a closed_rows -> row:int -> Ids_graph.Bitset.t -> 'a array -> int -> unit
(** [closed_row_terms c ~row nbrs out pos] writes, for the [i]-th table,
    built at point [a], [row_hash f a ~n ~row (nbrs ∪ {row})] into
    [out.(pos + i)] — bit-identical for a canonical [a] — for a set [nbrs]
    within [\[0, n)] that does not contain [row]: a graph row, whose closed
    neighbourhood it hashes in one pass over the row, with [1 + |nbrs|]
    multiplications per point beyond the lookups, without copying the row
    and without allocating.
    @raise Invalid_argument if [row] is out of [\[0, n)] or the slice does
    not fit in [out]. *)
