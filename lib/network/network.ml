module Graph = Ids_graph.Graph
module Bitset = Ids_graph.Bitset
module Rng = Ids_bignum.Rng
module Obs = Ids_obs.Obs

(* Per-round, per-node bit counters mirror the Cost ledger charge for
   charge: their totals sum exactly to Cost.total over the traced window. *)
let c_to_prover = Obs.Counter.make "net.to_prover_bits"
let c_from_prover = Obs.Counter.make "net.from_prover_bits"
let c_draws = Obs.Counter.make "net.challenge_draws"
let c_fault_decisions = Obs.Counter.make "net.fault_decisions"
let c_fault_drops = Obs.Counter.make "net.fault_drops"
let h_msg_bits = Obs.Histo.make "net.msg_bits"

type t = {
  graph : Graph.t;
  cost : Cost.t;
  rng : Rng.t;
  fault : Fault.t option;
  mutable missed : bool array;  (* [||] until the first miss *)
  mutable round : int;
}

let create ?fault ~seed graph =
  let n = Graph.n graph in
  let fault =
    match fault with
    | Some spec when not (Fault.is_none spec) -> Some (Fault.create ~seed ~n spec)
    | Some _ | None -> None
  in
  { graph;
    cost = Cost.create n;
    rng = Rng.create seed;
    fault;
    missed = [||];
    round = 0
  }

let graph t = t.graph
let n t = Graph.n t.graph
let cost t = t.cost
let rng t = t.rng
let current_round t = t.round

(* Every channel operation (challenge, unicast, broadcast) is one round;
   the counter exists whether or not tracing is on, so round numbering in
   traces matches what a protocol would compute by hand. It is independent
   of Fault's internal round counter, which keys fault randomness. *)
let next_round t =
  t.round <- t.round + 1;
  t.round

let fault_spec t = match t.fault with Some f -> Fault.spec f | None -> Fault.none
let crashed t v = match t.fault with Some f -> Fault.crashed f v | None -> false
let missed t v =
  if v < 0 || v >= n t then invalid_arg "index out of bounds";
  Array.length t.missed > 0 && t.missed.(v)

let mark_missed t v =
  if Array.length t.missed = 0 then t.missed <- Array.make (n t) false;
  t.missed.(v) <- true

let take_missed t =
  let snapshot = if Array.length t.missed = 0 then Array.make (n t) false else t.missed in
  t.missed <- [||];
  snapshot

(* Crashed nodes are silent for the whole execution: they neither send
   challenges nor receive responses, so the ledger must not charge them
   (a crashed-silent node billed per round was inflating the E13 crash
   degradation sweeps). With no crash possible every node pays the same,
   which the ledger keeps as one scalar. *)
let charge_live t counter ~round ~all ~one bits =
  let crash_free = match t.fault with None -> true | Some f -> (Fault.spec f).Fault.crash = 0. in
  if crash_free then all t.cost bits;
  if (not crash_free) || Obs.enabled () then
    for v = 0 to n t - 1 do
      if not (crashed t v) then begin
        if not crash_free then one t.cost v bits;
        Obs.Counter.add_cell counter ~round ~node:v bits
      end
    done

let charge_live_to_prover t ~round bits =
  charge_live t c_to_prover ~round ~all:Cost.charge_all_to_prover ~one:Cost.charge_to_prover bits

let charge_live_from_prover t ~round bits =
  charge_live t c_from_prover ~round ~all:Cost.charge_all_from_prover ~one:Cost.charge_from_prover bits

(* Every node's fault decision on its challenge. Delivery failure is modeled
   purely as decide-time rejection: the drawn value is still returned (and
   is typically handed to the prover — there is no generic sentinel for
   'c), but the sending node is marked missed so {!decide}, or a protocol
   folding {!take_missed} into its own verdicts, rejects it. Soundness must
   never depend on hiding a dropped challenge from the prover. *)
let challenge_faults t ~round =
  match t.fault with
  | None -> ()
  | Some f ->
    let fround = Fault.next_round f in
    for v = 0 to n t - 1 do
      Obs.Counter.add_cell c_fault_decisions ~round ~node:v 1;
      match Fault.deliver f ~round:fround ~node:v () with
      | Fault.Dropped ->
        mark_missed t v;
        Obs.Counter.add_cell c_fault_drops ~round ~node:v 1
      | Fault.Delivered () -> ()
    done

let challenge t ~bits gen =
  let round = next_round t in
  Obs.span ~round "net.challenge" (fun () ->
      charge_live_to_prover t ~round bits;
      if Obs.enabled () then begin
        Obs.Counter.add c_draws (n t);
        Obs.Histo.observe h_msg_bits bits
      end;
      (* Each node owns an independent generator split off the execution seed. *)
      let a = Array.init (n t) (fun _ -> gen (Rng.split t.rng)) in
      challenge_faults t ~round;
      a)

let challenge_at t ~bits ~node gen =
  if node < 0 || node >= n t then invalid_arg "Network.challenge_at: node out of range";
  let round = next_round t in
  Obs.span ~round "net.challenge" (fun () ->
      charge_live_to_prover t ~round bits;
      if Obs.enabled () then begin
        Obs.Counter.add c_draws (n t);
        Obs.Histo.observe h_msg_bits bits
      end;
      (* The same per-node splits as {!challenge}, in node order: the nodes
         whose draws nobody keeps only advance the stream. *)
      Rng.skip t.rng node;
      let c = gen (Rng.split t.rng) in
      Rng.skip t.rng (n t - 1 - node);
      challenge_faults t ~round;
      c)

let check_length t a = if Array.length a <> n t then invalid_arg "Network: response length mismatch"

(* Per-node delivery over one prover-response round. Equivocation (broadcast
   rounds only) corrupts the keyed victim's copy after regular delivery, so
   the spec's drop/corrupt rates and the equivocation attack compose. *)
let apply_faults t ?corrupt ?on_drop ~round ~equivocable responses =
  match t.fault with
  | None -> responses
  | Some f ->
    let fround = Fault.next_round f in
    let out = Array.copy responses in
    for v = 0 to Array.length out - 1 do
      Obs.Counter.add_cell c_fault_decisions ~round ~node:v 1;
      match Fault.deliver f ~round:fround ~node:v ?corrupt out.(v) with
      | Fault.Delivered x -> out.(v) <- x
      | Fault.Dropped -> (
        Obs.Counter.add_cell c_fault_drops ~round ~node:v 1;
        match on_drop with
        | Some d -> out.(v) <- d
        | None -> mark_missed t v)
    done;
    (if equivocable then
       match (corrupt, Fault.equivocation f ~round:fround ~n:(Array.length out)) with
       | Some c, Some (victim, rng) -> out.(victim) <- c rng out.(victim)
       | _ -> ());
    out

let unicast t ?corrupt ?on_drop ~bits responses =
  check_length t responses;
  let round = next_round t in
  Obs.span ~round "net.unicast" (fun () ->
      charge_live_from_prover t ~round bits;
      if Obs.enabled () then Obs.Histo.observe h_msg_bits bits;
      apply_faults t ?corrupt ?on_drop ~round ~equivocable:false responses)

let unicast_varbits t ?corrupt ?on_drop ~bits responses =
  check_length t responses;
  let round = next_round t in
  Obs.span ~round "net.unicast" (fun () ->
      Array.iteri
        (fun v _ ->
          if not (crashed t v) then begin
            Cost.charge_from_prover t.cost v (bits v);
            Obs.Counter.add_cell c_from_prover ~round ~node:v (bits v)
          end)
        responses;
      apply_faults t ?corrupt ?on_drop ~round ~equivocable:false responses)

let broadcast t ?corrupt ?on_drop ~bits responses =
  check_length t responses;
  let round = next_round t in
  Obs.span ~round "net.broadcast" (fun () ->
      charge_live_from_prover t ~round bits;
      if Obs.enabled () then Obs.Histo.observe h_msg_bits bits;
      apply_faults t ?corrupt ?on_drop ~round ~equivocable:true responses)

let broadcast_uniform t ?corrupt ?on_drop ~bits value =
  broadcast t ?corrupt ?on_drop ~bits (Array.make (n t) value)

let broadcast_consistent_at ?(equal = fun a b -> a = b) t values v =
  let ok = ref true in
  (* Crashed neighbors are silent, so there is no copy to compare against. *)
  Bitset.iter
    (fun u -> if (not (crashed t u)) && not (equal values.(u) values.(v)) then ok := false)
    (Graph.neighbors t.graph v);
  !ok

(* --- rounds that report changed copies ------------------------------------

   The array primitives above materialize one slot per node, which is fine
   for the paper's small instances but holds every node's response live for
   the whole round. The rounds below keep the value sent and return only the
   (node, copy) pairs the fault layer changed, in node order. With no fault
   layer nothing can change, so a round charges the ledger, advances the
   round counter and visits no node. Under faults it visits nodes 0..n-1 and
   draws every decision from the streams keyed by (seed, round, node) that
   the array primitives use, so both forms deliver the same copies and
   leave the same missed flags. *)

let response_changes t ?corrupt ?on_drop ~equivocable ~bits respond =
  let round = next_round t in
  charge_live_from_prover t ~round bits;
  match t.fault with
  | None -> []
  | Some fl ->
    let fround = Fault.next_round fl in
    (* The equivocation victim (broadcast only) comes from the same keyed
       stream as in [apply_faults] and is hit after its regular delivery. *)
    let equiv =
      match corrupt with
      | Some c when equivocable ->
        Option.map (fun (victim, rng) -> (victim, c, rng)) (Fault.equivocation fl ~round:fround ~n:(n t))
      | _ -> None
    in
    let changes = ref [] in
    for v = 0 to n t - 1 do
      let sent = respond v in
      Obs.Counter.add_cell c_fault_decisions ~round ~node:v 1;
      let delivered =
        match Fault.deliver fl ~round:fround ~node:v ?corrupt sent with
        | Fault.Delivered x -> x
        | Fault.Dropped -> (
          Obs.Counter.add_cell c_fault_drops ~round ~node:v 1;
          match on_drop with
          | Some d -> d
          | None ->
            mark_missed t v;
            sent)
      in
      let delivered =
        match equiv with Some (victim, c, rng) when victim = v -> c rng delivered | _ -> delivered
      in
      if delivered != sent && delivered <> sent then changes := (v, delivered) :: !changes
    done;
    List.rev !changes

let unicast_changes t ?corrupt ?on_drop ~bits respond =
  Obs.span ~round:(current_round t + 1) "net.unicast" (fun () ->
      if Obs.enabled () then Obs.Histo.observe h_msg_bits bits;
      response_changes t ?corrupt ?on_drop ~equivocable:false ~bits respond)

let broadcast_changes t ?corrupt ?on_drop ~bits value =
  Obs.span ~round:(current_round t + 1) "net.broadcast" (fun () ->
      if Obs.enabled () then Obs.Histo.observe h_msg_bits bits;
      response_changes t ?corrupt ?on_drop ~equivocable:true ~bits (fun _ -> value))

let verdict t out v =
  if crashed t v then
    match t.fault with Some f -> Fault.crash_mode f = Fault.Crash_vacuous | None -> false
  else (not (missed t v)) && out v

let decide t out =
  let accepted = ref true in
  for v = 0 to n t - 1 do
    if not (verdict t out v) then accepted := false
  done;
  !accepted
