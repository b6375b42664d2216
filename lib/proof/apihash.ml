module Graph = Ids_graph.Graph
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Bits = Ids_network.Bits
module Field = Ids_hash.Field
module Api = Ids_hash.Api
module Linear = Ids_hash.Linear
module Rng = Ids_bignum.Rng

type params = { q : int; field : int Field.t; copies : int }

(* A modulus that makes the eps-API bound meaningful: eps = q (m/q)^k < 1
   needs q > m^(k/(k-1)) for m = n² + n matrix cells, so we draw a seeded
   random prime in [4 m^(3/2), 8 m^(3/2)] (giving eps <= 1/16 at the
   default k = 3).

   Since the wide-limb migration the draw extends past the old 2^30 pin:
   the 2^62 scalar field (C widening mulmod) covers the true §4 prime for
   every m up to 2^40 — n beyond 10^6, the largest committed scale run.
   Above m = 2^40 the interval's lower end 4 m^(3/2) itself outgrows
   max_int = 2^62 - 1, and q caps at the largest prime below 2^62
   (completeness stays exact for every q; soundness eps = m³/q² degrades
   gracefully only past that astronomic point). When max_int truncates the
   interval's upper end 8 m^(3/2), soundness is unaffected: eps <= 1/16
   only needs q >= 4 m^(3/2). *)
let wide_cap_q = 4611686018427387847 (* largest prime below 2^62: 2^62 - 57 *)

(* Largest m with 4 m^(3/2) <= max_int, i.e. m^3 <= 2^120 / 16: m <= 2^40
   means every product below stays in range (4m < 2^43, isqrt m < 2^21). *)
let wide_draw_max_m = 1 lsl 40

(* Floor square root, integer-exact (the float seed is only a first guess,
   so the draw below is deterministic across platforms). *)
let isqrt m =
  let s = ref (int_of_float (sqrt (float_of_int m))) in
  while !s * !s > m do
    decr s
  done;
  while (!s + 1) * (!s + 1) <= m do
    incr s
  done;
  !s

let params_for ?(k = Api.default_copies) ~seed g =
  if k < 1 then invalid_arg "Apihash.params_for: need k >= 1";
  let n = Graph.n g in
  let m = (n * n) + n in
  (* m <= 2^18 is exactly when 8 m^(3/2) <= 2^30: the historical native
     branch, kept verbatim (draw for draw) so every committed small-graph
     estimate and pin is untouched by the scale lift below. *)
  let q =
    if m <= 1 lsl 18 then begin
      let lo = 4 * m * isqrt m in
      Ids_bignum.Prime.random_prime_in_int (Rng.create (seed lxor 0x4a71)) lo (2 * lo)
    end
    else if m <= wide_draw_max_m then begin
      let lo = 4 * m * isqrt m in
      (* 2 * lo can pass max_int near the top of the range; the clamp only
         trims the interval's upper half, which soundness never needed. *)
      let hi = if lo <= max_int / 2 then 2 * lo else max_int in
      Ids_bignum.Prime.random_prime_in_int (Rng.create (seed lxor 0x4a71)) lo hi
    end
    else wide_cap_q
  in
  { q; field = Field.native_field q; copies = k }

let epsilon params ~n =
  Api.epsilon params.field ~n ~k:params.copies ~q:(float_of_int params.q)

(* The prover's whole message, as the honest prover computes it: spanning
   tree labels rooted at [root], per-node subtree aggregates of the k inner
   row hashes, and the claimed hash of the adjacency matrix. [agg] is
   flattened n×k so a million-node advice is one unboxed int array. *)
type advice = {
  root : int;
  parent : int array;
  dist : int array;
  agg : int array;
  claim : int;
}

(* One split-table pair per inner point (Linear.row_table): a node's k row
   terms then cost O(degree) multiplications, not O(degree log n). *)
let row_tables f (spec : int Api.spec) ~n = Array.map (fun a -> Linear.row_table f a ~n) spec.Api.points

(* The two per-node passes (the prover's row terms, the verifier's local
   checks) run over fixed ranges of [chunk] nodes on up to [domains]
   domains. Each range reads shared data and writes only its own nodes'
   slots, so every result is the same for any domain count and chunk size.
   A graph of at most [chunk] nodes is one range and spawns no domain. *)
let default_chunk = 4096

let over_chunks ~domains ~chunk n f =
  if chunk < 1 then invalid_arg "Apihash: chunk must be positive";
  Ids_engine.Scheduler.map_range ~domains ~lo:0 ~hi:((n + chunk - 1) / chunk) (fun c ->
      f (c * chunk) (min n ((c + 1) * chunk)))

let honest_advice ?(domains = Ids_engine.Engine.default_domains ()) ?(chunk = default_chunk) params
    (spec : int Api.spec) ~root g =
  let n = Graph.n g in
  let f = params.field and k = params.copies in
  let tree, order = Spanning_tree.bfs_order g root in
  let parent = tree.Spanning_tree.parent and dist = tree.Spanning_tree.dist in
  (* Every node's k terms into its agg slots, from its shared graph row
     and the spec's row tables, built once and read by every range.
     The BFS stays in the caller: its O(n) arrays allocated on a worker
     domain would sit in that thread's malloc arena and raise peak RSS. *)
  let rows = Linear.closed_rows f (row_tables f spec ~n) in
  let agg = Array.make (n * k) f.Field.zero in
  ignore
    (over_chunks ~domains ~chunk n (fun lo hi ->
         for v = lo to hi - 1 do
           Linear.closed_row_terms rows ~row:v (Graph.neighbors g v) agg (v * k)
         done));
  (* Leaves-first: the BFS order backwards adds each node's k-vector into
     its parent's after all of the node's children have been added. Field
     addition is exact, so the sums equal the subtree totals in any order. *)
  for j = n - 1 downto 1 do
    let v = order.(j) in
    let p = parent.(v) * k and c = v * k in
    for i = 0 to k - 1 do
      agg.(p + i) <- f.Field.add agg.(p + i) agg.(c + i)
    done
  done;
  { root; parent; dist; agg; claim = Api.finalize f spec (Array.sub agg (root * k) k) }

type prover = params -> int Api.spec -> root:int -> Graph.t -> advice

let honest : prover = fun params spec ~root g -> honest_advice params spec ~root g

(* Forge the claimed hash without fixing the aggregates: the root's
   finalize equation catches it with probability 1. *)
let adversary_wrong_claim : prover =
 fun params spec ~root g ->
  let a = honest_advice params spec ~root g in
  { a with claim = (a.claim + 1) mod params.q }

(* Patch one node's first inner aggregate: either that node's subtree
   equation or its parent's breaks. *)
let adversary_corrupt_agg node : prover =
 fun params spec ~root g ->
  let a = honest_advice params spec ~root g in
  let agg = Array.copy a.agg in
  let j = node * params.copies in
  agg.(j) <- (agg.(j) + 1) mod params.q;
  { a with agg }

let response_bits_per_node f ~k n =
  (* spec echo + claim + root broadcast, parent + dist + k aggregates
     unicast: Θ(k log n) per node — the §4 budget. *)
  Api.spec_bits f ~k + f.Field.bits + Bits.id n + (2 * Bits.id n) + (k * f.Field.bits)

(* Slot [j] of a prover array, or -1 past its end: a short array from a
   cheating prover delivers poisoned values that every range check rejects. *)
let slot a j = if j < Array.length a then a.(j) else -1

(* Node [v]'s copy of a broadcast value, given the copies the round
   changed. *)
let copy changes sent =
  match changes with
  | [] -> Fun.const sent
  | _ ->
    let tbl = Hashtbl.of_seq (List.to_seq changes) in
    fun v -> Option.value (Hashtbl.find_opt tbl v) ~default:sent

(* The delivered copies of a per-node array: the sent array itself when no
   copy changed and none is missing, else a patched copy of length [len]. *)
let delivered ~len sent changes patch =
  if changes = [] && Array.length sent >= len then sent
  else begin
    let out = Array.init len (slot sent) in
    List.iter (fun (v, x) -> patch out v x) changes;
    out
  end

(* One execution: the Arthur round draws only the root's spec, each Merlin
   round keeps the value sent plus the few copies the fault layer changed
   (an unfaulted round visits no node), and the local checks run in
   node-range chunks under Network.verdict — each node's row terms come
   from the root spec's row tables, built once, over its shared O(degree)
   graph row, so no per-node state outlives its visit. *)
let run_body ?fault ?prover ?k ?(domains = Ids_engine.Engine.default_domains ()) ?(chunk = default_chunk) ~seed
    ~root g =
  let n = Graph.n g in
  if root < 0 || root >= n then invalid_arg "Apihash.run: root out of range";
  let prover = match prover with Some p -> p | None -> honest_advice ~domains ~chunk in
  let params = params_for ?k ~seed g in
  let f = params.field and k = params.copies in
  let net = Network.create ?fault ~seed g in
  let spec_bits = Api.spec_bits f ~k in
  (* Arthur: every node draws a spec; the root's draw is the shared one the
     prover must echo and the only one any node reads, so it is the only
     one generated. *)
  let root_spec = Network.challenge_at net ~bits:spec_bits ~node:root (Api.random_spec f ~k) in
  let a = prover params root_spec ~root g in
  let field_corrupt = Fault.flip_int_bit ~bits:f.Field.bits in
  let spec_corrupt rng (s : int Api.spec) = { s with Api.shift = field_corrupt rng s.Api.shift } in
  let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id n) in
  (* Merlin broadcasts: one value sent to all n nodes. *)
  let spec_changes = Network.broadcast_changes net ~corrupt:spec_corrupt ~bits:spec_bits root_spec in
  let claim_changes = Network.broadcast_changes net ~corrupt:field_corrupt ~bits:f.Field.bits a.claim in
  let root_changes = Network.broadcast_changes net ~corrupt:id_corrupt ~bits:(Bits.id n) a.root in
  (* Merlin unicasts: tree labels and the k-vector of subtree aggregates,
     produced per node on demand (only under faults). *)
  let label arr = Network.unicast_changes net ~corrupt:id_corrupt ~bits:(Bits.id n) (slot arr) in
  let parent_changes = label a.parent in
  let dist_changes = label a.dist in
  let agg_corrupt rng row =
    if Array.length row = 0 then row
    else begin
      let row = Array.copy row in
      let i = Rng.int rng (Array.length row) in
      row.(i) <- field_corrupt rng row.(i);
      row
    end
  in
  let agg_changes =
    Network.unicast_changes net ~corrupt:agg_corrupt ~bits:(k * f.Field.bits) (fun v ->
        Array.init k (fun i -> slot a.agg ((v * k) + i)))
  in
  let set out v x = out.(v) <- x in
  let parent = delivered ~len:n a.parent parent_changes set in
  let dist = delivered ~len:n a.dist dist_changes set in
  let agg =
    delivered ~len:(n * k) a.agg agg_changes (fun out v row ->
        if Array.length row = k then Array.blit row 0 out (v * k) k
        else
          (* A cheating prover shipped the wrong arity; poison the slot so
             the range check below rejects deterministically. *)
          Array.fill out (v * k) k (-1))
  in
  let spec_of = copy spec_changes root_spec
  and claim_of = copy claim_changes a.claim
  and root_of = copy root_changes a.root in
  (* Verifier-side row tables for the root's points, built before the
     chunks and read by all of them; a node holding other (range-checked)
     points builds its own, so nothing shared is written during the
     checks. *)
  let root_rows = Linear.closed_rows f (row_tables f root_spec ~n) in
  let field_ok x = Aggregation.in_range params.q x in
  let spec_eq (x : int Api.spec) (y : int Api.spec) = x == y || x = y in
  let spec_ok (spec : int Api.spec) =
    Array.length spec.Api.points = k
    && Array.for_all field_ok spec.Api.points
    && Array.for_all field_ok spec.Api.coeffs
    && field_ok spec.Api.shift
  in
  let root_spec_ok = spec_ok root_spec in
  (* With no broadcast copy changed, every node holds the sent values and
     the neighbour comparison holds everywhere. *)
  let broadcasts_intact = spec_changes = [] && claim_changes = [] && root_changes = [] in
  (* Local verification of one node, with per-chunk scratch: the node's k
     expected aggregates, first its own terms, then its children's sums
     added in decreasing order — a crashed child's unchecked aggregate may
     be out of range, where field addition is no longer order-free. *)
  let checker () =
    let expected = Array.make k f.Field.zero in
    let add_child u v =
      if parent.(u) = v then
        for i = 0 to k - 1 do
          expected.(i) <- f.Field.add expected.(i) agg.((u * k) + i)
        done;
      v
    in
    fun v ->
      let spec = spec_of v and claim = claim_of v and rt = root_of v in
      let nbrs = Graph.neighbors g v in
      let nbrs_consistent =
        broadcasts_intact
        || Ids_graph.Bitset.fold
             (fun u acc ->
               acc
               && (Network.crashed net u
                  || (spec_eq (spec_of u) spec && claim_of u = claim && root_of u = rt)))
             nbrs true
      in
      nbrs_consistent
      && Aggregation.in_range n rt
      && field_ok claim
      && (if spec == root_spec then root_spec_ok else spec_ok spec)
      && Aggregation.tree_check g ~root:rt ~parent ~dist v
      &&
      let ok = ref true in
      for i = 0 to k - 1 do
        if not (field_ok agg.((v * k) + i)) then ok := false
      done;
      !ok
      &&
      (* Own terms from the shared O(degree) row, then the Lemma 3.3 subtree
         equation per inner copy. *)
      let rows =
        if spec.Api.points == root_spec.Api.points || spec.Api.points = root_spec.Api.points then root_rows
        else Linear.closed_rows f (row_tables f spec ~n)
      in
      Linear.closed_row_terms rows ~row:v nbrs expected 0;
      ignore (Ids_graph.Bitset.fold_right add_child nbrs v);
      let ok = ref true in
      for i = 0 to k - 1 do
        if agg.((v * k) + i) <> expected.(i) then ok := false
      done;
      !ok
      &&
      if v = rt then
        f.Field.equal (Api.finalize f spec (Array.sub agg (v * k) k)) claim
        && v = root && spec_eq spec root_spec
      else true
  in
  (* Network.decide's rules, one node range per chunk. *)
  let chunk_ok lo hi =
    let check = checker () in
    let ok = ref true in
    for v = lo to hi - 1 do
      if not (Network.verdict net check v) then ok := false
    done;
    !ok
  in
  let accepted = Array.for_all Fun.id (over_chunks ~domains ~chunk n chunk_ok) in
  Outcome.of_cost ~accepted ~prover:"apihash" (Network.cost net)

let run ?fault ?prover ?k ?domains ?chunk ~seed ~root g =
  Ids_obs.Obs.span "apihash.run" (fun () -> run_body ?fault ?prover ?k ?domains ?chunk ~seed ~root g)
