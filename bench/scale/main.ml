(* Million-node scale benchmark (EXPERIMENTS.md E19).

   Builds a degree-4 random-circulant expander on the sparse backend and
   runs the two Θ(log n)-advice protocols end to end: the spanning-tree
   proof labeling scheme (Pls.Tree) and the Section 4 tree-aggregable
   eps-API hash over streamed network views (Apihash, on
   Engine.default_domains () domains — IDS_DOMAINS). Reports nodes/sec
   per protocol, the domain count and the process's peak RSS, and emits
   BENCH_scale.json.

   --smoke (n = 10^4, wired into @runtest-fast) additionally asserts the
   scale path's two contracts: peak RSS stays under a fixed bound (an
   O(n^2)-resident regression at n = 10^4 blows through it), and dense- vs
   sparse-backend runs of both protocols are bit-identical. *)

module Rng = Ids_bignum.Rng
module Graph = Ids_graph.Graph
module Family = Ids_graph.Family
module Graph_io = Ids_graph.Graph_io
module Pls = Ids_proof.Pls
module Apihash = Ids_proof.Apihash
module Outcome = Ids_proof.Outcome

let default_n = 1_000_000
let smoke_n = 10_000
let degree = 4
let graph_seed = 0x5ca1e
let run_seed = 11

(* Peak resident set in bytes: VmHWM from /proc/self/status (Linux), else
   the GC's top heap size — an underestimate, but monotone in the same
   regressions the smoke bound exists to catch. *)
let peak_rss_bytes () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line ->
            (try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (kb * 1024))
             with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
          | exception End_of_file -> None
        in
        scan ())
  in
  let fallback () =
    let st = Gc.quick_stat () in
    st.Gc.top_heap_words * (Sys.word_size / 8)
  in
  match (try from_proc () with Sys_error _ -> None) with
  | Some b -> b
  | None -> fallback ()

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

type proto_result = { seconds : float; nodes_per_sec : float; accepted : bool; bits_per_node : int }

let run_pls g =
  let n = Graph.n g in
  let (verdict : Pls.verdict), seconds =
    timed (fun () ->
        let advice = Pls.Tree.honest g 0 in
        Pls.Tree.verify g advice)
  in
  { seconds;
    nodes_per_sec = float_of_int n /. seconds;
    accepted = verdict.Pls.accepted;
    bits_per_node = verdict.Pls.advice_bits_per_node
  }

let run_apihash g =
  let n = Graph.n g in
  let (out : Outcome.t), seconds = timed (fun () -> Apihash.run ~seed:run_seed ~root:0 g) in
  { seconds;
    nodes_per_sec = float_of_int n /. seconds;
    accepted = out.Outcome.accepted;
    bits_per_node = out.Outcome.max_bits_per_node
  }

let check name cond = if not cond then begin Printf.eprintf "FAIL: %s\n%!" name; exit 1 end

(* Dense and sparse backends must produce the same graph and bit-identical
   protocol outcomes (same seeds, same draws). Run at a size where the
   dense backend is still cheap. *)
let backend_equality_smoke () =
  let n = 600 in
  let build repr = Family.expander ~repr (Rng.create graph_seed) ~n ~degree in
  let gd = build Graph.Dense and gs = build Graph.Sparse in
  check "smoke: dense/sparse expander Graph.equal" (Graph.equal gd gs);
  let pd = run_pls gd and ps = run_pls gs in
  check "smoke: PLS accepts on both backends" (pd.accepted && ps.accepted);
  check "smoke: PLS bits agree across backends" (pd.bits_per_node = ps.bits_per_node);
  let od = Apihash.run ~seed:run_seed ~root:0 gd and os = Apihash.run ~seed:run_seed ~root:0 gs in
  check "smoke: apihash outcome bit-identical across backends" (od = os);
  check "smoke: apihash accepts" od.Outcome.accepted

let emit_json path ~n ~smoke ~graph_seconds ~sparse6_bytes ~pls ~api ~(params : Apihash.params) ~domains
    ~peak_rss =
  let buf = Buffer.create 1024 in
  let proto name r =
    Printf.sprintf
      "\"%s\": {\"seconds\": %.3f, \"nodes_per_sec\": %.0f, \"accepted\": %b, \"bits_per_node\": %d}"
      name r.seconds r.nodes_per_sec r.accepted r.bits_per_node
  in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"bench\": \"scale\", \"smoke\": %b,\n" smoke);
  Buffer.add_string buf
    (Printf.sprintf "  \"n\": %d, \"degree\": %d, \"repr\": \"sparse\", \"graph_seed\": %d, \"run_seed\": %d,\n"
       n degree graph_seed run_seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"graph_build_seconds\": %.3f, \"sparse6_bytes\": %d,\n" graph_seconds sparse6_bytes);
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (proto "pls_tree" pls));
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (proto "apihash" api));
  Buffer.add_string buf
    (Printf.sprintf "  \"apihash_q\": %d, \"apihash_copies\": %d, \"apihash_domains\": %d,\n" params.Apihash.q
       params.Apihash.copies domains);
  Buffer.add_string buf (Printf.sprintf "  \"peak_rss_mb\": %.1f\n" (peak_rss /. 1048576.));
  Buffer.add_string buf "}\n";
  let s = Buffer.contents buf in
  let oc = open_out path in
  output_string oc s;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let smoke = ref false and out_path = ref "BENCH_scale.json" and n = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "-o" :: path :: rest ->
      out_path := path;
      parse rest
    | "-n" :: v :: rest ->
      n := int_of_string v;
      parse rest
    | arg :: _ ->
      Printf.eprintf "usage: %s [--smoke] [-o PATH] [-n N]\n" Sys.argv.(0);
      ignore arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let n = if !n > 0 then !n else if !smoke then smoke_n else default_n in
  Printf.printf "scale bench: n = %d, degree = %d (%s)\n%!" n degree
    (if !smoke then "smoke" else "full");
  let g, graph_seconds =
    timed (fun () -> Family.expander ~repr:Graph.Sparse (Rng.create graph_seed) ~n ~degree)
  in
  Printf.printf "  graph build         %8.3f s\n%!" graph_seconds;
  let s6, s6_seconds = timed (fun () -> Graph_io.to_sparse6 g) in
  let sparse6_bytes = String.length s6 in
  Printf.printf "  sparse6 encode      %8.3f s  (%d bytes)\n%!" s6_seconds sparse6_bytes;
  let pls = run_pls g in
  Printf.printf "  pls_tree            %8.3f s  (%.0f nodes/s, %d bits/node, %s)\n%!" pls.seconds
    pls.nodes_per_sec pls.bits_per_node
    (if pls.accepted then "ACCEPT" else "REJECT");
  let api = run_apihash g in
  let domains = Ids_engine.Engine.default_domains () in
  Printf.printf "  apihash             %8.3f s  (%.0f nodes/s, %d bits/node, %d domains, %s)\n%!" api.seconds
    api.nodes_per_sec api.bits_per_node domains
    (if api.accepted then "ACCEPT" else "REJECT");
  let params = Apihash.params_for ~seed:run_seed g in
  let peak_rss = float_of_int (peak_rss_bytes ()) in
  Printf.printf "  peak RSS            %8.1f MB\n%!" (peak_rss /. 1048576.);
  check "pls_tree accepts" pls.accepted;
  check "apihash accepts" api.accepted;
  check "sparse6 round-trips" (Graph.equal g (Graph_io.of_sparse6 s6));
  if !smoke then begin
    (* An O(n²)-resident regression at n = 10⁴ needs ~100 MB for one dense
       structure alone; the streamed sparse path stays far below this. *)
    let bound_mb = 300. in
    check
      (Printf.sprintf "smoke: peak RSS %.1f MB under %.0f MB bound" (peak_rss /. 1048576.) bound_mb)
      (peak_rss /. 1048576. < bound_mb);
    backend_equality_smoke ();
    Printf.printf "  backend equality    OK (dense/sparse bit-identical)\n%!"
  end;
  emit_json !out_path ~n ~smoke:!smoke ~graph_seconds ~sparse6_bytes ~pls ~api ~params ~domains ~peak_rss
