(* Charges every node receives alike (an unfaulted round) are two scalars;
   the per-node arrays hold only what was charged node by node and stay
   [||] until the first such charge, so an honest run never builds them. *)
type t = {
  n : int;
  mutable all_to : int;
  mutable all_from : int;
  mutable to_prover : int array;
  mutable from_prover : int array;
}

let create n =
  if n < 0 then invalid_arg "Cost.create: negative size";
  { n; all_to = 0; all_from = 0; to_prover = [||]; from_prover = [||] }

let n t = t.n

let check_node t v = if v < 0 || v >= t.n then invalid_arg "index out of bounds"

(* Node [v]'s per-node part of one direction. *)
let extra t a v =
  check_node t v;
  if Array.length a = 0 then 0 else a.(v)

let charge_to_prover t v bits =
  if bits < 0 then invalid_arg "Cost.charge_to_prover: negative bits";
  check_node t v;
  if Array.length t.to_prover = 0 then t.to_prover <- Array.make t.n 0;
  t.to_prover.(v) <- t.to_prover.(v) + bits

let charge_from_prover t v bits =
  if bits < 0 then invalid_arg "Cost.charge_from_prover: negative bits";
  check_node t v;
  if Array.length t.from_prover = 0 then t.from_prover <- Array.make t.n 0;
  t.from_prover.(v) <- t.from_prover.(v) + bits

let charge_all_from_prover t bits =
  if bits < 0 then invalid_arg "Cost.charge_from_prover: negative bits";
  t.all_from <- t.all_from + bits

let charge_all_to_prover t bits =
  if bits < 0 then invalid_arg "Cost.charge_to_prover: negative bits";
  t.all_to <- t.all_to + bits

let to_prover t v = t.all_to + extra t t.to_prover v
let from_prover t v = t.all_from + extra t t.from_prover v

let node_total t v = to_prover t v + from_prover t v

let max_per_node t =
  let m = ref 0 in
  for v = 0 to t.n - 1 do
    if node_total t v > !m then m := node_total t v
  done;
  !m

let max_from_prover t =
  if t.n = 0 then 0 else t.all_from + Array.fold_left max 0 t.from_prover

let total t =
  (t.n * (t.all_to + t.all_from))
  + Array.fold_left ( + ) 0 t.to_prover
  + Array.fold_left ( + ) 0 t.from_prover

let equal a b =
  a.n = b.n
  &&
  let rec same v = v = a.n || (to_prover a v = to_prover b v && from_prover a v = from_prover b v && same (v + 1)) in
  same 0

let pp fmt t =
  Format.fprintf fmt "cost(max/node=%d bits, total=%d bits)" (max_per_node t) (total t)
