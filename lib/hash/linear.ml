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

(* Closed row terms at several points, one C call per row
   (Kernel.row_terms62). The tables of all points are flattened into one
   int array with the points interleaved, and pre-multiplied into
   Montgomery form (R = 2^64): column entries and the row shifts' big half
   as aR, the row shifts' small half plain. A column power is then the
   Montgomery product aR, the row shift a plain residue, and their product
   the canonical term. The header matches the enum in ids_kernel.c. *)
type closed_rows = { order : int; points : int; tab : int array }

let header = 9

let closed_rows (f : int Field.t) tables =
  let p = f.Field.size in
  if p land 1 = 0 then invalid_arg "Linear.closed_rows: even modulus";
  let k = Array.length tables in
  if k = 0 then invalid_arg "Linear.closed_rows: no tables";
  let n = tables.(0).n in
  if Array.exists (fun (t : int row_table) -> t.n <> n) tables then
    invalid_arg "Linear.closed_rows: tables for different n";
  (* -p^-1 mod 2^64 by Newton's iteration (p * p = 1 mod 8 gives 3 bits,
     each step doubles them), split in two halves for the 63-bit ints. *)
  let p64 = Int64.of_int p in
  let inv = ref p64 in
  for _ = 1 to 5 do
    inv := Int64.mul !inv (Int64.sub 2L (Int64.mul p64 !inv))
  done;
  let pneg = Int64.neg !inv in
  (* R mod p = 2^62 * 4 mod p; max_int = 2^62 - 1. *)
  let mulmod a b = Ids_bignum.Kernel.mulmod62 a b p in
  let r = mulmod (((max_int mod p) + 1) mod p) (4 mod p) in
  let mont x = mulmod x r in
  (* Point i's four tables in layout order, each with its conversion. *)
  let parts (t : int row_table) =
    [| (t.cols.small, mont); (t.cols.big, mont); (t.rows.small, Fun.id); (t.rows.big, mont) |]
  in
  let off = Array.make 5 header in
  Array.iteri (fun j (src, _) -> off.(j + 1) <- off.(j) + (k * Array.length src)) (parts tables.(0));
  let tab = Array.make off.(4) 0 in
  tab.(0) <- p;
  tab.(1) <- Int64.to_int (Int64.logand pneg 0xFFFF_FFFFL);
  tab.(2) <- Int64.to_int (Int64.shift_right_logical pneg 32);
  tab.(3) <- k;
  tab.(4) <- tables.(0).cols.shift;
  tab.(5) <- tables.(0).rows.shift;
  tab.(6) <- off.(1);
  tab.(7) <- off.(2);
  tab.(8) <- off.(3);
  Array.iteri
    (fun i t ->
      Array.iteri (fun j (src, conv) -> Array.iteri (fun e x -> tab.(off.(j) + (e * k) + i) <- conv x) src) (parts t))
    tables;
  { order = n; points = k; tab }

let closed_row_terms c ~row nbrs out pos =
  if pos < 0 || pos + c.points > Array.length out then invalid_arg "Linear.closed_row_terms: output slice out of range";
  if row < 0 || row >= c.order then invalid_arg "Linear.closed_row_terms: row out of range";
  (* Every member is below the capacity, so its exponent w + 1 <= n is
     inside the column tables. *)
  if Bitset.capacity nbrs > c.order then invalid_arg "Linear.closed_row_terms: set capacity above n";
  if Bitset.is_sparse nbrs then
    Ids_bignum.Kernel.row_terms62 c.tab row (Bitset.sparse_elements nbrs) (Bitset.cardinal nbrs) out pos
  else begin
    let elts = Array.of_list (Bitset.to_list nbrs) in
    Ids_bignum.Kernel.row_terms62 c.tab row elts (Array.length elts) out pos
  end
