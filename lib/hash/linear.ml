module Bitset = Ids_graph.Bitset
module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm

let row_poly f a s = Bitset.fold (fun w acc -> f.Field.add acc (f.Field.pow_int a (w + 1))) s f.Field.zero

let row_hash f a ~n ~row s =
  if row < 0 || row >= n then invalid_arg "Linear.row_hash: row out of range";
  f.Field.mul (f.Field.pow_int a (row * n)) (row_poly f a s)

let matrix_hash f a ~n rows =
  List.fold_left (fun acc (v, s) -> f.Field.add acc (row_hash f a ~n ~row:v s)) f.Field.zero rows

let graph_hash f a g =
  let n = Graph.n g in
  matrix_hash f a ~n (List.init n (fun v -> (v, Graph.closed_neighborhood g v)))

let permuted_graph_hash f a g rho =
  let n = Graph.n g in
  matrix_hash f a ~n
    (List.init n (fun v -> (Perm.apply rho v, Perm.apply_set rho (Graph.closed_neighborhood g v))))

let collision_bound ~n ~p = float_of_int ((n * n) + n) /. float_of_int p

let powers f a m =
  let t = Array.make (m + 1) f.Field.one in
  for i = 1 to m do
    t.(i) <- f.Field.mul t.(i - 1) a
  done;
  t

(* Decide rounds evaluate row hashes at each node's own copy of the
   broadcast index, which faults can make diverge across nodes: memoize one
   power table per distinct index so the honest case builds exactly one. *)
let powers_memo f m =
  let tbl = Hashtbl.create 4 in
  fun a ->
    match Hashtbl.find_opt tbl a with
    | Some t -> t
    | None ->
      let t = powers f a m in
      Hashtbl.add tbl a t;
      t

let row_poly_pow f ~powers s =
  Bitset.fold (fun w acc -> f.Field.add acc powers.(w + 1)) s f.Field.zero

let row_hash_pow f ~powers ~n ~row s =
  if row < 0 || row >= n then invalid_arg "Linear.row_hash_pow: row out of range";
  f.Field.mul powers.(row * n) (row_poly_pow f ~powers s)

let graph_hash_pow f ~powers g =
  let n = Graph.n g in
  let acc = ref f.Field.zero in
  for v = 0 to n - 1 do
    acc := f.Field.add !acc (row_hash_pow f ~powers ~n ~row:v (Graph.closed_neighborhood g v))
  done;
  !acc

let permuted_graph_hash_pow f ~powers g rho =
  let n = Graph.n g in
  let acc = ref f.Field.zero in
  for v = 0 to n - 1 do
    acc :=
      f.Field.add !acc
        (row_hash_pow f ~powers ~n ~row:(Perm.apply rho v)
           (Perm.apply_set rho (Graph.closed_neighborhood g v)))
  done;
  !acc

(* Split power tables: a^e = big.(e lsr s) * small.(e land mask) with about
   2 sqrt(m) entries instead of the m + 1 of [powers]; the smallest s with
   2^(2s) > m makes [small] (2^s entries) at least as long as [big]. *)
type 'a split = { shift : int; small : 'a array; big : 'a array }

let split_powers f a m =
  if m < 0 then invalid_arg "Linear.split_powers: negative bound";
  let s = ref 0 in
  while 1 lsl (2 * !s) <= m do
    incr s
  done;
  let small = powers f a ((1 lsl !s) - 1) in
  let step = f.Field.mul small.(Array.length small - 1) a in
  { shift = !s; small; big = powers f step (m lsr !s) }

let split_pow f t e = f.Field.mul t.big.(e lsr t.shift) t.small.(e land ((1 lsl t.shift) - 1))

type 'a row_table = { n : int; cols : 'a split; rows : 'a split }

let row_table f a ~n =
  if n < 1 then invalid_arg "Linear.row_table: need n >= 1";
  let cols = split_powers f a n in
  { n; cols; rows = split_powers f (split_pow f cols n) (n - 1) }

(* Closed row terms at several points in one pass over the row. The
   scratch and the per-column step are allocated once per evaluator, so a
   pass over many rows allocates nothing per row. Every term is a
   canonical residue, so starting each sum at the row's own column is the
   same field element as folding the closed set. *)
type 'a closed_rows = { field : 'a Field.t; tables : 'a row_table array; terms : 'a array; add_col : int -> unit }

let closed_rows f tables =
  let k = Array.length tables in
  let terms = Array.make k f.Field.zero in
  let add_col w =
    for i = 0 to k - 1 do
      terms.(i) <- f.Field.add terms.(i) (split_pow f tables.(i).cols (w + 1))
    done
  in
  { field = f; tables; terms; add_col }

let closed_row_terms c ~row nbrs out pos =
  let f = c.field and k = Array.length c.tables in
  if pos < 0 || pos + k > Array.length out then invalid_arg "Linear.closed_row_terms: output slice out of range";
  for i = 0 to k - 1 do
    let t = c.tables.(i) in
    if row < 0 || row >= t.n then invalid_arg "Linear.closed_row_terms: row out of range";
    c.terms.(i) <- split_pow f t.cols (row + 1)
  done;
  Bitset.iter c.add_col nbrs;
  for i = 0 to k - 1 do
    out.(pos + i) <- f.Field.mul (split_pow f c.tables.(i).rows row) c.terms.(i)
  done
