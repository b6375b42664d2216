module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Spanning_tree = Ids_graph.Spanning_tree
module Network = Ids_network.Network
module Fault = Ids_network.Fault
module Bits = Ids_network.Bits
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Api = Ids_hash.Api
module Rng = Ids_bignum.Rng

type rows = (int * Bitset.t) list

type challenge = { specs : int Api.spec array; targets : int array }

type commit = {
  miss : bool array;
  b : int array;
  tables : int array array list;
  root : int array;
  spec_echo : int Api.spec array;
  target_echo : int array;
  parent : int array;
  dist : int array;
}

type reveal = { audit_echo : int array; agg : int array array; audit_aggs : int array list }

type witness = { b : int; tables : int array list }

type candidate = { witness : witness; rows : (int * Bitset.t) array }

let table_pair w =
  match w.tables with [ t0; t1 ] -> (t0, t1) | _ -> invalid_arg "Gs.table_pair: expected two tables"

let candidate ~n own_rows witness =
  { witness; rows = Array.of_list (List.concat (List.init n (own_rows witness))) }

(* The elements of S are hashed matrices, onto which witnesses map
   many-to-one: keep the first candidate of each matrix, in order. Row
   indices are distinct within a matrix, so its rows sorted by index name
   it. *)
let distinct cands =
  let seen = Hashtbl.create 4096 in
  let key c =
    let buf = Buffer.create 64 in
    List.iter
      (fun (i, s) ->
        Buffer.add_string buf (string_of_int i);
        Bitset.iter (fun w -> Buffer.add_string buf ("," ^ string_of_int w)) s;
        Buffer.add_char buf ';')
      (List.sort (fun (i, _) (j, _) -> Int.compare i j) (Array.to_list c.rows));
    Buffer.contents buf
  in
  let fresh c =
    let k = key c in
    (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true)
  in
  Array.of_seq (Seq.filter fresh cands)

type 'i set = {
  span : string;
  salt : int;
  graph : 'i -> Graph.t;
  width : 'i -> int;
  size : 'i -> int;
  no_extra : 'i -> int;
  table_count : int;
  candidates : 'i -> candidate array Lazy.t;
  own_rows : 'i -> witness -> int -> rows;
  audits : int;
  audit_terms : 'i -> int Field.t -> int -> witness -> int -> int array;
}

type params = {
  q : int;
  field : int Field.t;
  copies : int;
  repetitions : int;
  threshold : int;
  set_size : int;
  yes_bound : float;
  no_bound : float;
}

(* Single-repetition acceptance bounds from the GS analysis with an eps-API
   hash (see Api's documentation). The NO side adds the chance that a
   committed fake table slips past the post-commitment audit. *)
let params_for set ?repetitions ~seed inst =
  let k = Api.default_copies in
  let set_size = set.size inst in
  let rng = Rng.create (seed lxor set.salt) in
  let q = Ids_bignum.Prime.random_prime_in_int rng (4 * set_size) (8 * set_size) in
  let field = Field.int_field q in
  let fq = float_of_int q and fk = float_of_int set_size in
  let eps = Api.epsilon field ~n:(set.width inst) ~k ~q:fq in
  let s = 2. *. fk in
  let yes = (s /. fq) -. (s *. s *. (1. +. eps) /. (2. *. fq *. fq)) in
  let no = (fk /. fq) +. (float_of_int (set.no_extra inst) /. fq) in
  let repetitions = match repetitions with Some t -> t | None -> 600 in
  let threshold = Stats.midpoint_threshold ~trials:repetitions ~yes_rate:yes ~no_rate:no in
  { q; field; copies = k; repetitions; threshold; set_size; yes_bound = yes; no_bound = no }

type 'i prover = {
  name : string;
  commit : params -> 'i -> challenge -> commit;
  reveal : params -> 'i -> challenge -> commit -> int array -> reveal;
}

(* --- fast preimage search --------------------------------------------------- *)

(* Hash a candidate's rows under an Api spec using per-point power tables:
   z_i = sum_rows powers_i.(row_index * width) * P_i(content),
   y   = shift + sum_i coeffs_i * z_i   (mod q). *)
let hasher params ~width (spec : int Api.spec) =
  let q = params.q in
  let powtabs = Array.map (fun a -> Linear.powers params.field a ((width * width) + width)) spec.Api.points in
  fun rows ->
    let y = ref spec.Api.shift in
    Array.iteri
      (fun i pows ->
        let z = ref 0 in
        Array.iter
          (fun (idx, content) ->
            let p = Bitset.fold (fun w acc -> (acc + pows.(w + 1)) mod q) content 0 in
            z := (!z + (pows.(idx * width) * p)) mod q)
          rows;
        y := (!y + (spec.Api.coeffs.(i) * !z)) mod q)
      powtabs;
    !y

let honest_root = 0

(* Trials run on several domains, and OCaml 5 raises [Lazy.Undefined] when
   one forces a lazy value another is still forcing ([Lazy.is_val] is
   already true by then), so the candidates are forced under a lock. *)
let force_lock = Mutex.create ()

let force_candidates l = Mutex.protect force_lock (fun () -> Lazy.force l)

let preimage params ~width (ch : challenge) cands =
  let hash = hasher params ~width ch.specs.(honest_root) and target = ch.targets.(honest_root) in
  Seq.find_map (fun c -> if hash c.rows = target then Some c.witness else None) cands

let search set params inst ch =
  preimage params ~width:(set.width inst) ch (Array.to_seq (force_candidates (set.candidates inst)))

(* --- honest prover ------------------------------------------------------------ *)

let const n v = Array.make n v

let commit set inst (ch : challenge) found =
  let g = set.graph inst in
  let n = Graph.n g in
  let tree = Precomp.tree g honest_root in
  let miss, w =
    match found with
    | Some w -> (false, w)
    | None -> (true, { b = 0; tables = List.init set.table_count (fun _ -> Array.init n Fun.id) })
  in
  { miss = const n miss;
    b = const n w.b;
    tables = List.map (const n) w.tables;
    root = const n honest_root;
    spec_echo = const n ch.specs.(honest_root);
    target_echo = const n ch.targets.(honest_root);
    parent = Array.copy tree.Spanning_tree.parent;
    dist = Array.copy tree.Spanning_tree.dist
  }

(* A node's k-vector of inner row terms over the rows it owns. *)
let row_terms f ~k ~width spec rows =
  List.fold_left
    (fun acc (row, content) -> Api.combine f acc (Api.row_term f spec ~n:width ~row content))
    (Api.zero_term f ~k) rows

let honest_reveal set params inst (_ch : challenge) (c : commit) audit =
  let n = Array.length c.miss in
  let f = params.field and k = params.copies in
  let root = c.root.(0) in
  let audit_point = audit.(root) in
  if c.miss.(0) then
    { audit_echo = const n audit_point;
      agg = Array.init n (fun _ -> Array.make k 0);
      audit_aggs = List.init set.audits (fun _ -> Array.make n 0)
    }
  else begin
    let tree = { Spanning_tree.root; parent = Array.copy c.parent; dist = Array.copy c.dist } in
    let spec = c.spec_echo.(0) and width = set.width inst in
    let w = { b = c.b.(0); tables = List.map (fun t -> t.(0)) c.tables } in
    (* Each node's term vectors are computed once, then summed per copy. *)
    let terms = Array.init n (fun v -> row_terms f ~k ~width spec (set.own_rows inst w v)) in
    let audit_terms = Array.init n (set.audit_terms inst f audit_point w) in
    let sums terms i = Aggregation.honest_sums f tree ~term:(fun v -> terms.(v).(i)) in
    let per_copy = Array.init k (sums terms) in
    { audit_echo = const n audit_point;
      agg = Array.init n (fun v -> Array.init k (fun i -> per_copy.(i).(v)));
      audit_aggs = List.init set.audits (sums audit_terms)
    }
  end

let honest set =
  { name = "honest";
    commit = (fun params inst ch -> commit set inst ch (search set params inst ch));
    reveal = honest_reveal set
  }

(* --- helpers for the automorphism-compensated sets --------------------------- *)

let stacked_rows ~n sigma alpha v nb =
  let auto = Bitset.create n in
  Bitset.add auto sigma.(alpha.(v));
  [ (sigma.(v), Sym_core.image ~n sigma nb); (n + sigma.(v), auto) ]

let lemma31_terms f point ~n alpha v nb =
  [| Linear.row_hash f point ~n ~row:v nb;
     Linear.row_hash f point ~n ~row:alpha.(v) (Sym_core.image ~n alpha nb)
  |]

(* --- execution --------------------------------------------------------------- *)

let is_perm n table =
  Array.length table = n
  && Array.for_all (Aggregation.in_range n) table
  &&
  let seen = Array.make n false in
  Array.iter (fun x -> seen.(x) <- true) table;
  Array.for_all Fun.id seen

(* One repetition inside a running network; returns per-node validity. *)
let run_repetition set params inst net prover =
  let g = set.graph inst in
  let n = Graph.n g in
  let f = params.field and k = params.copies and width = set.width inst in
  (* Arthur 1: spec + target candidates. *)
  let spec_bits = Api.spec_bits f ~k in
  let specs = Network.challenge net ~bits:spec_bits (fun rng -> Api.random_spec f ~k rng) in
  let targets = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  let ch = { specs; targets } in
  (* Merlin 1: commitment. *)
  let c = prover.commit params inst ch in
  if List.length c.tables <> set.table_count then invalid_arg "Gs: commit has the wrong number of tables";
  let id_corrupt = Fault.flip_int_bit ~bits:(Bits.id n) in
  let field_corrupt = Fault.flip_int_bit ~bits:f.Field.bits in
  let spec_corrupt rng (s : int Api.spec) = { s with Api.shift = field_corrupt rng s.Api.shift } in
  let agg_corrupt rng a =
    if Array.length a = 0 then a
    else begin
      let a = Array.copy a in
      let i = Rng.int rng (Array.length a) in
      a.(i) <- field_corrupt rng a.(i);
      a
    end
  in
  let miss_bc = Network.broadcast net ~corrupt:Fault.flip_bool ~bits:1 c.miss in
  let b_bc = Network.broadcast net ~corrupt:(Fault.flip_int_bit ~bits:1) ~bits:1 c.b in
  let tables_bc = List.map (Network.broadcast net ~corrupt:Fault.swap_entries ~bits:(Bits.perm n)) c.tables in
  let root_bc = Network.broadcast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.root in
  let spec_echo_bc = Network.broadcast net ~corrupt:spec_corrupt ~bits:spec_bits c.spec_echo in
  let target_echo_bc = Network.broadcast net ~corrupt:field_corrupt ~bits:f.Field.bits c.target_echo in
  let parent_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.parent in
  let dist_u = Network.unicast net ~corrupt:id_corrupt ~bits:(Bits.id n) c.dist in
  (* Arthur 2: audit point. *)
  let audit = Network.challenge net ~bits:f.Field.bits (fun rng -> f.Field.random rng) in
  (* Merlin 2: aggregates. *)
  let r = prover.reveal params inst ch c audit in
  let audit_echo_bc = Network.broadcast net ~corrupt:field_corrupt ~bits:f.Field.bits r.audit_echo in
  let agg_u = Network.unicast net ~corrupt:agg_corrupt ~bits:(k * f.Field.bits) r.agg in
  let audit_aggs_u = List.map (Network.unicast net ~corrupt:field_corrupt ~bits:f.Field.bits) r.audit_aggs in
  (* Local verification. *)
  let field_ok x = Aggregation.in_range params.q x in
  let consistent v bc = Network.broadcast_consistent_at net bc v in
  let valid_at v =
    consistent v miss_bc && consistent v b_bc
    && List.for_all (consistent v) tables_bc
    && consistent v root_bc && consistent v spec_echo_bc && consistent v target_echo_bc
    && consistent v audit_echo_bc
    && (not miss_bc.(v))
    &&
    let w = { b = b_bc.(v); tables = List.map (fun bc -> bc.(v)) tables_bc } in
    let root = root_bc.(v) and spec = spec_echo_bc.(v) and target = target_echo_bc.(v) in
    let audit_pt = audit_echo_bc.(v) in
    let audit_aggs = List.map (fun a -> a.(v)) audit_aggs_u in
    (w.b = 0 || w.b = 1)
    && List.for_all (is_perm n) w.tables
    && Aggregation.in_range n root
    && field_ok target && field_ok audit_pt
    && Array.for_all field_ok spec.Api.points
    && Array.for_all field_ok spec.Api.coeffs
    && field_ok spec.Api.shift
    && Array.length spec.Api.points = k
    && Array.length agg_u.(v) = k
    && Array.for_all field_ok agg_u.(v)
    && List.length audit_aggs = set.audits
    && List.for_all field_ok audit_aggs
    && Aggregation.tree_check g ~root ~parent:parent_u ~dist:dist_u v
    &&
    let children = Aggregation.children g ~parent:parent_u v in
    let term = row_terms f ~k ~width spec (set.own_rows inst w v) in
    let audit_terms = set.audit_terms inst f audit_pt w v in
    let copy_ok i =
      let expected = List.fold_left (fun acc u -> f.Field.add acc agg_u.(u).(i)) term.(i) children in
      f.Field.equal agg_u.(v).(i) expected
    in
    let rec all_copies i = i >= k || (copy_ok i && all_copies (i + 1)) in
    all_copies 0
    && List.for_all2
         (fun own claimed -> Aggregation.subtree_equation f ~own ~claimed ~children v)
         (Array.to_list audit_terms) audit_aggs_u
    &&
    if v = root then
      f.Field.equal (Api.finalize f spec agg_u.(v)) target
      && List.for_all (f.Field.equal (List.hd audit_aggs)) audit_aggs
      && spec = specs.(v) && target = targets.(v) && audit_pt = audit.(v)
    else true
  in
  let valid = Array.init n valid_at in
  (* Scope delivery failures to this repetition: a drop invalidates the node
     here and now, and the cleared flags leave the final Network.decide (over
     the aggregated counts) to judge only crashes. *)
  let missed = Network.take_missed net in
  Array.mapi (fun v ok -> ok && not missed.(v)) valid

(* [params.repetitions] repetitions over one execution; a node accepts iff
   at least [params.threshold] of them looked valid to it. A single
   repetition is the case t = 1, threshold 1. *)
let execute set ~single ?fault ?params ~seed inst prover =
  Ids_obs.Obs.span (set.span ^ if single then ".run_single" else ".run") (fun () ->
      let params = match params with Some p -> p | None -> params_for set ~seed inst in
      let params = if single then { params with repetitions = 1; threshold = 1 } else params in
      let net = Network.create ?fault ~seed (set.graph inst) in
      let counts = Array.make (Graph.n (set.graph inst)) 0 in
      for _rep = 1 to params.repetitions do
        let valid = run_repetition set params inst net prover in
        Array.iteri (fun v ok -> if ok then counts.(v) <- counts.(v) + 1) valid
      done;
      let accepted = Network.decide net (fun v -> counts.(v) >= params.threshold) in
      Outcome.of_cost ~accepted ~prover:prover.name (Network.cost net))

let run_single set = execute set ~single:true
let run set = execute set ~single:false
