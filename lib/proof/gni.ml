module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm
module Iso = Ids_graph.Iso
module Field = Ids_hash.Field
module Linear = Ids_hash.Linear
module Api = Ids_hash.Api
module Rng = Ids_bignum.Rng

type instance = {
  g0 : Graph.t;
  g1 : Graph.t;
  n : int;
  candidates : Gs.candidate array Lazy.t;
}

let side inst b = if b = 0 then inst.g0 else inst.g1

(* Row owned by node v once (sigma, b) is fixed: index sigma(v), content
   sigma(N_b(v)). *)
let own_rows g (w : Gs.witness) v =
  let sigma = List.hd w.tables in
  [ (sigma.(v), Sym_core.image ~n:(Graph.n g) sigma (Graph.closed_neighborhood g v)) ]

let make_instance g0 g1 =
  let n = Graph.n g0 in
  if Graph.n g1 <> n then invalid_arg "Gni.make_instance: size mismatch";
  if n > 8 then invalid_arg "Gni.make_instance: n > 8 (exhaustive prover scans 2 n! permutations)";
  if not (Graph.is_connected g0) then invalid_arg "Gni.make_instance: network graph must be connected";
  if Iso.is_symmetric g0 || Iso.is_symmetric g1 then
    invalid_arg "Gni.make_instance: graphs must be asymmetric (Section 4's restriction)";
  let candidates =
    lazy
      (let perms = Perm.all n in
       let of_b b =
         let g = if b = 0 then g0 else g1 in
         List.map (fun sigma -> Gs.candidate ~n (own_rows g) { Gs.b; tables = [ Perm.to_array sigma ] }) perms
       in
       Array.of_list (of_b 0 @ of_b 1))
  in
  { g0; g1; n; candidates }

let yes_instance rng n =
  let g0 = Ids_graph.Family.random_asymmetric rng n in
  let rec pick () =
    let g1 = Ids_graph.Family.random_asymmetric rng n in
    if Iso.are_isomorphic g0 g1 then pick () else g1
  in
  make_instance g0 (pick ())

let no_instance rng n =
  let g0 = Ids_graph.Family.random_asymmetric rng n in
  let g1 = Graph.relabel g0 (Perm.to_array (Perm.random rng n)) in
  make_instance g0 g1

(* The audit hashes the node's own row at the post-commitment point. *)
let audit_terms inst f point (w : Gs.witness) v =
  let row_hash (row, content) = Linear.row_hash f point ~n:inst.n ~row content in
  Array.of_list (List.map row_hash (own_rows (side inst w.b) w v))

let set =
  { Gs.span = "gni";
    salt = 0x6b2f;
    graph = (fun inst -> inst.g0);
    width = (fun inst -> inst.n);
    size = (fun inst -> Precomp.factorial inst.n);
    no_extra = (fun _ -> 0);
    table_count = 1;
    candidates = (fun inst -> inst.candidates);
    own_rows = (fun inst (w : Gs.witness) -> own_rows (side inst w.b) w);
    audits = 1;
    audit_terms
  }

type params = Gs.params

let params_for ?repetitions ~seed inst = Gs.params_for set ?repetitions ~seed inst
let yes_rate_bound p = p.Gs.yes_bound
let no_rate_bound p = p.Gs.no_bound

type prover = instance Gs.prover

let prover_name (p : prover) = p.Gs.name
let honest = Gs.honest set

type commit_mode = [ `Search | `Deny of [ `Identity | `Random of int ] | `Always_identity ]

type reveal_mode = [ `Honest | `Patch_root ]

let identity_table n = Array.init n Fun.id

(* `Deny: honest search, but a miss is never admitted: claim a preimage that
   does not exist (the failed search already ruled every table out, so the
   bet is hopeless, but the structural checks all pass until the root's
   target equation).

   `Always_identity: never searches, commits to (identity, g0) whether or not
   the target has a preimage, betting on the identity hash landing on the
   target. The reveal is honest for that commitment, so every structural
   check passes and the bet is settled by the root's outer target equation
   alone — per repetition it wins with probability about 1/q, far below the
   honest miss rate of roughly 1 - 2 n!/q. *)
let commit_for mode params inst ch =
  let claim table = Some { Gs.b = 0; tables = [ table ] } in
  let found =
    match mode with
    | `Search -> Gs.search set params inst ch
    | `Deny table_for -> (
      match Gs.search set params inst ch with Some _ as hit -> hit | None -> claim (table_for inst.n))
    | `Always_identity -> claim (identity_table inst.n)
  in
  Gs.commit set inst ch found

(* Patch the root's aggregate so the outer target equation passes; the
   root's own aggregation check then fails instead. *)
let patch_root_reveal params inst ch (c : Gs.commit) audit =
  let r = honest.reveal params inst ch c audit in
  let f = params.Gs.field in
  let root = c.root.(0) and spec = c.spec_echo.(0) and target = c.target_echo.(0) in
  let current = Api.finalize f spec r.agg.(root) in
  if f.Field.equal current target then r
  else begin
    let c0 = spec.Api.coeffs.(0) in
    (* Solve c0 * delta = target - current for delta when c0 <> 0. *)
    let delta =
      if c0 = 0 then 0
      else begin
        let diff = f.Field.sub target current in
        (* Fermat inversion: c0^(q-2) mod q. *)
        let inv = f.Field.pow_int c0 (params.q - 2) in
        f.Field.mul diff inv
      end
    in
    let agg = Array.map Array.copy r.agg in
    agg.(root).(0) <- f.Field.add agg.(root).(0) delta;
    { r with agg }
  end

let cheat ~name ~commit ~reveal =
  let mode =
    match commit with
    | (`Search | `Always_identity) as m -> m
    | `Deny `Identity -> `Deny identity_table
    | `Deny (`Random seed) -> `Deny (fun n -> Perm.to_array (Perm.random (Rng.create seed) n))
  in
  let reveal = match reveal with `Honest -> honest.reveal | `Patch_root -> patch_root_reveal in
  { Gs.name; commit = commit_for mode; reveal }

let adversary_forge_aggregates =
  cheat ~name:"adversary:forge-aggregates" ~commit:(`Deny (`Random 99)) ~reveal:`Patch_root

let adversary_biased_hash =
  cheat ~name:"adversary:biased-hash" ~commit:`Always_identity ~reveal:`Honest

let run_single ?fault ?params ~seed inst prover = Gs.run_single set ?fault ?params ~seed inst prover
let run ?fault ?params ~seed inst prover = Gs.run set ?fault ?params ~seed inst prover
