module Graph = Ids_graph.Graph
module Perm = Ids_graph.Perm
module Family = Ids_graph.Family
module Fault = Ids_network.Fault
module Field = Ids_hash.Field
module Nat = Ids_bignum.Nat
module Rng = Ids_bignum.Rng
module Search = Ids_engine.Search

type protocol = Sym_dmam | Sym_dam | Dsym | Gni

let protocol_label = function
  | Sym_dmam -> "sym_dmam"
  | Sym_dam -> "sym_dam"
  | Dsym -> "dsym"
  | Gni -> "gni"

let protocols = [ Sym_dmam; Sym_dam; Dsym; Gni ]

let protocol_of_label s = List.find_opt (fun p -> protocol_label p = s) protocols

let axis_names = function
  | Sym_dmam -> [| "perm"; "split"; "sums"; "echo"; "fault" |]
  | Sym_dam -> [| "perm"; "sums"; "echo"; "fault" |]
  | Dsym -> [| "perm"; "root"; "sums"; "echo"; "fault" |]
  | Gni -> [| "commit"; "reveal"; "fault" |]

let sums_levels = [| "consistent"; "forge-root-b"; "offset-b" |]
let echo_levels = [| "root"; "skew" |]
let fault_levels = [| "none"; "equivocate"; "crash-vacuous" |]

let levels = function
  | Sym_dmam ->
    [| [| "fallback"; "random"; "identity"; "rotation" |];
       [| "none"; "root" |];
       sums_levels; echo_levels; fault_levels
    |]
  | Sym_dam ->
    [| [| "search"; "fallback"; "random"; "identity" |]; sums_levels; echo_levels; fault_levels |]
  | Dsym -> [| [| "sigma"; "swapped" |]; [| "zero"; "one" |]; sums_levels; echo_levels; fault_levels |]
  | Gni ->
    [| [| "search"; "deny-identity"; "deny-random"; "identity-always" |];
       [| "honest"; "patch-root" |];
       fault_levels
    |]

let space p =
  let names = axis_names p and lv = levels p in
  Array.mapi
    (fun i name -> { Search.name; cardinality = Array.length lv.(i) })
    names

let fault_axis p = Array.length (axis_names p) - 1

type t = { protocol : protocol; seed : int; point : int array }

let make protocol ~seed point =
  let lv = levels protocol in
  if Array.length point <> Array.length lv then
    invalid_arg
      (Printf.sprintf "Strategy.make: %s takes %d axes, got %d" (protocol_label protocol)
         (Array.length lv) (Array.length point));
  Array.iteri
    (fun i v ->
      if v < 0 || v >= Array.length lv.(i) then
        invalid_arg
          (Printf.sprintf "Strategy.make: axis %s has %d levels, got %d"
             (axis_names protocol).(i) (Array.length lv.(i)) v))
    point;
  { protocol; seed; point = Array.copy point }

let equal a b = a.protocol = b.protocol && a.seed = b.seed && a.point = b.point

(* --- codec -------------------------------------------------------------------- *)

let encode t =
  let names = axis_names t.protocol and lv = levels t.protocol in
  let fields =
    Array.to_list (Array.mapi (fun i v -> Printf.sprintf "%s=%s" names.(i) lv.(i).(v)) t.point)
  in
  String.concat " "
    ([ "strategy"; "v1"; protocol_label t.protocol; Printf.sprintf "seed=%d" t.seed ] @ fields)

let decode line =
  let toks = Array.of_list (List.filter (( <> ) "") (String.split_on_char ' ' line)) in
  let len = Array.length toks in
  let err i msg = Error (Printf.sprintf "token %d: %s in %S" i msg line) in
  let need i what =
    if i <= len then Ok toks.(i - 1)
    else Error (Printf.sprintf "token %d: truncated (expected %s) in %S" i what line)
  in
  let ( let* ) = Result.bind in
  let key_value i what tok =
    match String.index_opt tok '=' with
    | Some j -> Ok (String.sub tok 0 j, String.sub tok (j + 1) (String.length tok - j - 1))
    | None -> err i (Printf.sprintf "expected %s, got %S" what tok)
  in
  let* magic = need 1 "\"strategy\"" in
  let* () = if magic = "strategy" then Ok () else err 1 (Printf.sprintf "expected \"strategy\", got %S" magic) in
  let* version = need 2 "version \"v1\"" in
  let* () =
    if version = "v1" then Ok () else err 2 (Printf.sprintf "unknown version %S (expected \"v1\")" version)
  in
  let* label = need 3 "a protocol name" in
  let* protocol =
    match protocol_of_label label with
    | Some p -> Ok p
    | None ->
      err 3
        (Printf.sprintf "unknown protocol %S (expected %s)" label
           (String.concat " | " (List.map protocol_label protocols)))
  in
  let* seed_tok = need 4 "seed=<int>" in
  let* key, value = key_value 4 "seed=<int>" seed_tok in
  let* () = if key = "seed" then Ok () else err 4 (Printf.sprintf "unknown field %S (expected \"seed\")" key) in
  let* seed =
    match int_of_string_opt value with
    | Some s -> Ok s
    | None -> err 4 (Printf.sprintf "seed %S is not an integer" value)
  in
  let names = axis_names protocol and lv = levels protocol in
  let k = Array.length names in
  let point = Array.make k 0 in
  let rec axes i =
    if i >= k then Ok ()
    else begin
      let pos = 5 + i in
      let* tok = need pos (Printf.sprintf "field %S" names.(i)) in
      let* key, value = key_value pos (Printf.sprintf "%s=<level>" names.(i)) tok in
      let* () =
        if key = names.(i) then Ok ()
        else err pos (Printf.sprintf "unknown field %S (expected %S)" key names.(i))
      in
      let* v =
        let rec find j =
          if j >= Array.length lv.(i) then
            err pos
              (Printf.sprintf "unknown level %S for field %S (expected %s)" value names.(i)
                 (String.concat " | " (Array.to_list lv.(i))))
          else if lv.(i).(j) = value then Ok j
          else find (j + 1)
        in
        find 0
      in
      point.(i) <- v;
      axes (i + 1)
    end
  in
  let* () = axes 0 in
  if len > 4 + k then err (5 + k) (Printf.sprintf "trailing token %S" toks.(4 + k))
  else Ok { protocol; seed; point }

(* --- fault knob --------------------------------------------------------------- *)

let fault_of t =
  match t.point.(fault_axis t.protocol) with
  | 0 -> Fault.none
  | 1 -> Fault.equivocate_only
  | _ -> Fault.make ~crash:0.1 ~crash_mode:Fault.Crash_vacuous ()

let fault_param t =
  let f = fault_of t in
  if Fault.is_none f then None else Some f

(* --- response distortions ----------------------------------------------------- *)

(* The sums and echo axes, shared by the three symmetry-style protocols and
   generic in the field carrier (int for sym_dmam/dsym, Nat for sym_dam):
   the distorted [(b, index)] of a consistent response. *)
let distort (type e) (f : e Field.t) ~sums ~echo ~root ~(a : e array) (b : e array) (index : e array) =
  let bump = Array.map (fun x -> f.Field.add x f.Field.one) in
  let b =
    match sums with
    | 0 -> b
    | 1 ->
      (* Force the root comparison a_r = b_r to pass; the root's own subtree
         equation for b then fails. *)
      let b = Array.copy b in
      b.(root) <- a.(root);
      b
    | _ -> bump b
  in
  (b, if echo = 0 then index else bump index)

let check t want fn =
  if t.protocol <> want then
    invalid_arg (Printf.sprintf "Strategy.%s: strategy is for %s" fn (protocol_label t.protocol))

(* --- provers ------------------------------------------------------------------ *)

let sym_dmam_prover t =
  check t Sym_dmam "sym_dmam_prover";
  let perm = t.point.(0) and split = t.point.(1) and sums = t.point.(2) and echo = t.point.(3) in
  let rho_for g =
    let n = Graph.n g in
    match perm with
    | 0 -> Sym_core.fallback n
    | 1 ->
      (* At seed 0 this is exactly the registry random-perm draw. *)
      Perm.random_nonidentity (Rng.create (Hashtbl.hash (Graph.encode g) + t.seed)) n
    | 2 -> Perm.identity n
    | _ -> Perm.of_array (Array.init n (fun i -> (i + 1) mod n))
  in
  { Sym_dmam.name = encode t;
    commit =
      (fun _params g ->
        let c = Sym_dmam.commit_with_rho g (rho_for g) in
        if split = 0 then c else Sym_dmam.split_root c);
    respond =
      (fun params g c challenges ->
        let r = Sym_dmam.respond_consistently params g c challenges in
        let b, index =
          distort params.Sym_dmam.field ~sums ~echo ~root:c.Sym_dmam.root.(0) ~a:r.Sym_dmam.a r.Sym_dmam.b
            r.Sym_dmam.index
        in
        { r with Sym_dmam.b; index })
  }

let sym_dam_prover t =
  check t Sym_dam "sym_dam_prover";
  let perm = t.point.(0) and sums = t.point.(1) and echo = t.point.(2) in
  { Sym_dam.name = encode t;
    respond =
      (fun params g challenges ->
        let n = Graph.n g in
        let table =
          match perm with
          | 0 ->
            (* At seed 0 this is exactly the registry collision search. *)
            Sym_dam.search_table
              ~seed:((Hashtbl.hash (Graph.encode g) lxor 0x9e1) + t.seed)
              params g challenges
          | 1 -> (Sym_core.fallback n :> int array)
          | 2 ->
            Perm.to_array
              (Perm.random_nonidentity
                 (Rng.create ((Hashtbl.hash (Graph.encode g) lxor 0x77) + t.seed))
                 n)
          | _ -> Array.init n Fun.id
        in
        let r = Sym_dam.respond_with_rho params g challenges table in
        let b, index =
          distort params.Sym_dam.field ~sums ~echo ~root:r.Sym_dam.root.(0) ~a:r.Sym_dam.a r.Sym_dam.b
            r.Sym_dam.index
        in
        { r with Sym_dam.b; index })
  }

let dsym_prover t =
  check t Dsym "dsym_prover";
  let perm = t.point.(0) and root_ax = t.point.(1) and sums = t.point.(2) and echo = t.point.(3) in
  { Dsym.name = encode t;
    respond =
      (fun params inst challenges ->
        let size = Graph.n inst.Dsym.graph in
        let sigma = Precomp.dsym_sigma ~n:inst.Dsym.n ~r:inst.Dsym.r in
        let sigma = if perm = 0 then sigma else Perm.compose sigma (Perm.transposition size 0 1) in
        let r = Dsym.respond_with ~root:root_ax ~sigma params inst challenges in
        let b, index = distort params.Dsym.field ~sums ~echo ~root:root_ax ~a:r.Dsym.a r.Dsym.b r.Dsym.index in
        { r with Dsym.b; index })
  }

let gni_prover t =
  check t Gni "gni_prover";
  let commit =
    match t.point.(0) with
    | 0 -> `Search
    | 1 -> `Deny `Identity
    | 2 ->
      (* At seed 0 this is exactly the registry forge-aggregates table. *)
      `Deny (`Random (99 + t.seed))
    | _ -> `Always_identity
  in
  let reveal = if t.point.(1) = 0 then `Honest else `Patch_root in
  Gni.cheat ~name:(encode t) ~commit ~reveal

(* --- frontier cases ----------------------------------------------------------- *)

type frontier_case = {
  protocol : protocol;
  label : string;
  n : int;
  space : Search.space;
  bound : float;
  bound_label : string;
  strategy_of : Search.point -> t;
  trial : Search.point -> int -> Ids_engine.Accum.trial;
  registry : (string * (int -> Ids_engine.Accum.trial)) list;
}

(* Fixed NO instances derived from hard-coded seeds: the frontier is a
   property of one instance, so every process measures the same curves and
   the tier-1 pins can assert exact acceptance counts. *)
let frontier_cases () =
  let trial_of = Stats.trial_of_outcome in
  let sym_dmam_case =
    let g = Family.random_asymmetric (Rng.create 21) 8 in
    let params = Sym_dmam.params_for ~seed:3 g in
    let strategy_of pt = make Sym_dmam ~seed:0 pt in
    { protocol = Sym_dmam;
      label = "sym_dmam";
      n = 8;
      space = space Sym_dmam;
      bound = float_of_int ((8 * 8) + 8) /. float_of_int params.Sym_dmam.p;
      bound_label = "(n^2+n)/p";
      strategy_of;
      trial =
        (fun pt seed ->
          let s = strategy_of pt in
          trial_of (Sym_dmam.run ?fault:(fault_param s) ~params ~seed g (sym_dmam_prover s)));
      registry =
        List.map
          (fun (name, p) -> (name, fun seed -> trial_of (Sym_dmam.run ~params ~seed g p)))
          Adversary.sym_dmam
    }
  in
  let sym_dam_case =
    let g = Family.random_asymmetric (Rng.create 22) 6 in
    let params = Sym_dam.params_for ~seed:3 g in
    let p_float =
      match Nat.to_int_opt params.Sym_dam.p with
      | Some p -> float_of_int p
      | None -> Float.infinity
    in
    let strategy_of pt = make Sym_dam ~seed:0 pt in
    { protocol = Sym_dam;
      label = "sym_dam";
      n = 6;
      space = space Sym_dam;
      bound = (6. ** 6.) *. float_of_int ((6 * 6) + 6) /. p_float;
      bound_label = "n^n (n^2+n)/p";
      strategy_of;
      trial =
        (fun pt seed ->
          let s = strategy_of pt in
          trial_of (Sym_dam.run ?fault:(fault_param s) ~params ~seed g (sym_dam_prover s)));
      registry =
        List.map
          (fun (name, p) -> (name, fun seed -> trial_of (Sym_dam.run ~params ~seed g p)))
          Adversary.sym_dam
    }
  in
  let dsym_case =
    let side = 6 and r = 1 in
    let core = Family.random_asymmetric (Rng.create 23) side in
    let inst = Dsym.make_instance ~n:side ~r (Family.dsym_perturbed (Rng.create 24) core r) in
    let params = Dsym.params_for ~seed:3 inst in
    let size = (2 * side) + (2 * r) + 1 in
    let strategy_of pt = make Dsym ~seed:0 pt in
    { protocol = Dsym;
      label = "dsym";
      n = size;
      space = space Dsym;
      bound = float_of_int ((size * size) + size) /. float_of_int params.Dsym.p;
      bound_label = "(N^2+N)/p";
      strategy_of;
      trial =
        (fun pt seed ->
          let s = strategy_of pt in
          trial_of (Dsym.run ?fault:(fault_param s) ~params ~seed inst (dsym_prover s)));
      registry =
        List.map
          (fun (name, p) -> (name, fun seed -> trial_of (Dsym.run ~params ~seed inst p)))
          Adversary.dsym
    }
  in
  let gni_case =
    let inst = Gni.no_instance (Rng.create 25) 6 in
    let params = Gni.params_for ~seed:3 inst in
    let strategy_of pt = make Gni ~seed:0 pt in
    { protocol = Gni;
      label = "gni";
      n = 6;
      space = space Gni;
      bound = Gni.no_rate_bound params;
      bound_label = "n!/q";
      strategy_of;
      trial =
        (fun pt seed ->
          let s = strategy_of pt in
          trial_of (Gni.run_single ?fault:(fault_param s) ~params ~seed inst (gni_prover s)));
      registry =
        List.map
          (fun (name, p) -> (name, fun seed -> trial_of (Gni.run_single ~params ~seed inst p)))
          Adversary.gni
    }
  in
  [ sym_dmam_case; sym_dam_case; dsym_case; gni_case ]
