(* Tests for the ids_graph substrate: bitsets, graph structure, generators,
   permutation group laws, automorphism/isomorphism search against brute
   force, spanning trees, and the paper's dumbbell/DSym families. *)

open Ids_graph
module Rng = Ids_bignum.Rng

let qtest = QCheck_alcotest.to_alcotest

(* --- bitsets --------------------------------------------------------------- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 61;
  Bitset.add s 62;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list sorted" [ 0; 61; 62; 99 ] (Bitset.to_list s);
  Alcotest.(check bool) "mem 62" true (Bitset.mem s 62);
  Alcotest.(check bool) "not mem 63" false (Bitset.mem s 63);
  Bitset.remove s 62;
  Alcotest.(check bool) "removed" false (Bitset.mem s 62);
  Alcotest.(check (option int)) "choose" (Some 0) (Bitset.choose s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range" (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.add s 10);
  Alcotest.check_raises "mem negative" (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.mem s (-1)))

let test_bitset_set_ops () =
  let a = Bitset.of_list 70 [ 1; 3; 65 ] and b = Bitset.of_list 70 [ 3; 4; 65 ] in
  Alcotest.(check (list int)) "union" [ 1; 3; 4; 65 ] (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 3; 65 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check bool) "subset inter a" true (Bitset.subset (Bitset.inter a b) a);
  Alcotest.(check bool) "a not subset b" false (Bitset.subset a b);
  let c = Bitset.copy a in
  Bitset.add c 2;
  Alcotest.(check bool) "copy independent" false (Bitset.mem a 2)

let prop_bitset_list_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/to_list roundtrip" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 30) (int_bound 63))
    (fun xs ->
      let sorted = List.sort_uniq Stdlib.compare xs in
      Bitset.to_list (Bitset.of_list 64 xs) = sorted)

let prop_bitset_fold_right =
  QCheck.Test.make ~name:"bitset fold_right = List.fold_right over to_list" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_bound 40) (int_bound 199))
    (fun xs ->
      List.for_all
        (fun s ->
          Bitset.fold_right (fun x acc -> x :: acc) s [] = Bitset.to_list s
          && Bitset.fold_right (fun x acc -> (acc * 31) + x) s 7
             = List.fold_right (fun x acc -> (acc * 31) + x) (Bitset.to_list s) 7)
        [ Bitset.of_list 200 xs; Bitset.of_list_sparse 200 xs ])

let test_bitset_sparse_mirrors_dense () =
  (* The sparse representation must answer every query identically. *)
  let rng = Rng.create 21 in
  for _ = 1 to 50 do
    let d = Bitset.create 200 and s = Bitset.create_sparse 200 in
    for _ = 1 to 60 do
      let x = Rng.int rng 200 in
      if Rng.int rng 3 = 0 then begin
        Bitset.remove d x;
        Bitset.remove s x
      end
      else begin
        Bitset.add d x;
        Bitset.add s x
      end
    done;
    Alcotest.(check bool) "is_sparse" true (Bitset.is_sparse s && not (Bitset.is_sparse d));
    Alcotest.(check (list int)) "same elements" (Bitset.to_list d) (Bitset.to_list s);
    Alcotest.(check int) "same cardinal" (Bitset.cardinal d) (Bitset.cardinal s);
    Alcotest.(check (option int)) "same choose" (Bitset.choose d) (Bitset.choose s);
    Alcotest.(check bool) "mixed equal d/s" true (Bitset.equal d s);
    Alcotest.(check bool) "mixed equal s/d" true (Bitset.equal s d);
    Alcotest.(check int) "fold order identical" (Bitset.fold (fun x acc -> (acc * 31) + x) d 7)
      (Bitset.fold (fun x acc -> (acc * 31) + x) s 7);
    let s' = Bitset.copy s in
    Alcotest.(check bool) "copy keeps repr" true (Bitset.is_sparse s');
    Bitset.add s' 199;
    Bitset.remove s' 198;
    Alcotest.(check bool) "copy independent"
      (Bitset.mem s 199 && not (Bitset.mem s 198))
      (Bitset.mem s' 199 && not (Bitset.mem s' 198) && Bitset.equal s s')
  done

(* The capacity-mismatch bugfix, pinned: [equal] is total — different
   capacities compare unequal instead of raising — in all four
   representation combinations, and within one capacity it is exactly
   element-set equality. *)
let prop_bitset_equal_total =
  let elems = QCheck.(list_of_size (QCheck.Gen.int_bound 12) (int_bound 49)) in
  QCheck.Test.make ~name:"bitset equal: total, capacity-sensitive, repr-blind" ~count:300
    QCheck.(quad (int_range 50 52) (int_range 50 52) elems elems)
    (fun (c1, c2, xs, ys) ->
      let want = c1 = c2 && List.sort_uniq Stdlib.compare xs = List.sort_uniq Stdlib.compare ys in
      List.for_all
        (fun (a, b) -> Bitset.equal a b = want && Bitset.equal b a = want)
        [ (Bitset.of_list c1 xs, Bitset.of_list c2 ys);
          (Bitset.of_list_sparse c1 xs, Bitset.of_list_sparse c2 ys);
          (Bitset.of_list c1 xs, Bitset.of_list_sparse c2 ys);
          (Bitset.of_list_sparse c1 xs, Bitset.of_list c2 ys)
        ])

(* --- graphs ---------------------------------------------------------------- *)

let test_graph_edges () =
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check int) "edge count" 3 (Graph.edge_count g);
  Alcotest.(check bool) "has 0-1" true (Graph.has_edge g 0 1);
  Alcotest.(check bool) "has 1-0" true (Graph.has_edge g 1 0);
  Alcotest.(check bool) "no 0-2" false (Graph.has_edge g 0 2);
  Alcotest.(check int) "deg 1" 2 (Graph.degree g 1);
  Alcotest.(check (list (pair int int))) "edges sorted" [ (0, 1); (1, 2); (3, 4) ] (Graph.edges g);
  Graph.remove_edge g 0 1;
  Alcotest.(check bool) "removed" false (Graph.has_edge g 0 1)

let test_graph_self_loop_rejected () =
  let g = Graph.make 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      Graph.add_edge g 1 1)

let test_closed_neighborhood () =
  let g = Graph.of_edges 4 [ (0, 1); (0, 2) ] in
  Alcotest.(check (list int)) "N(0) includes 0" [ 0; 1; 2 ] (Bitset.to_list (Graph.closed_neighborhood g 0));
  Alcotest.(check (list int)) "N(3) = {3}" [ 3 ] (Bitset.to_list (Graph.closed_neighborhood g 3))

let test_connectivity () =
  Alcotest.(check bool) "path connected" true (Graph.is_connected (Graph.path 6));
  Alcotest.(check bool) "two components" false (Graph.is_connected (Graph.of_edges 4 [ (0, 1); (2, 3) ]));
  Alcotest.(check bool) "single vertex" true (Graph.is_connected (Graph.make 1));
  Alcotest.(check bool) "empty on 2" false (Graph.is_connected (Graph.make 2))

let test_induced () =
  let g = Graph.cycle 6 in
  let h = Graph.induced g [ 0; 1; 2 ] in
  Alcotest.(check (list (pair int int))) "induced path" [ (0, 1); (1, 2) ] (Graph.edges h)

let test_disjoint_union () =
  let g = Graph.disjoint_union (Graph.path 3) (Graph.path 2) in
  Alcotest.(check (list (pair int int))) "union edges" [ (0, 1); (1, 2); (3, 4) ] (Graph.edges g)

let test_relabel () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let h = Graph.relabel g [| 2; 0; 1 |] in
  Alcotest.(check bool) "edge moved" true (Graph.has_edge h 2 0);
  Alcotest.(check int) "count kept" 1 (Graph.edge_count h)

let test_encode () =
  let g = Graph.of_edges 3 [ (0, 2) ] in
  Alcotest.(check string) "upper triangle" "010" (Graph.encode g);
  Alcotest.(check string) "row bits with self-loop" "101" (Graph.adjacency_row_bits g 0)

let test_generators_shape () =
  Alcotest.(check int) "cycle edges" 7 (Graph.edge_count (Graph.cycle 7));
  Alcotest.(check int) "complete edges" 10 (Graph.edge_count (Graph.complete 5));
  Alcotest.(check int) "star edges" 6 (Graph.edge_count (Graph.star 7));
  Alcotest.(check int) "K_{3,4} edges" 12 (Graph.edge_count (Graph.complete_bipartite 3 4));
  Alcotest.(check int) "hypercube Q3 edges" 12 (Graph.edge_count (Graph.hypercube 3));
  let p = Graph.petersen () in
  Alcotest.(check int) "petersen edges" 15 (Graph.edge_count p);
  for v = 0 to 9 do
    Alcotest.(check int) "petersen 3-regular" 3 (Graph.degree p v)
  done;
  Alcotest.(check int) "grid 3x4 edges" 17 (Graph.edge_count (Graph.grid 3 4));
  Alcotest.(check bool) "grid connected" true (Graph.is_connected (Graph.grid 3 4))

let test_random_gnp_extremes () =
  let rng = Rng.create 1 in
  Alcotest.(check int) "p=0 gives no edges" 0 (Graph.edge_count (Graph.random_gnp rng 10 0.0));
  Alcotest.(check int) "p=1 gives complete" 45 (Graph.edge_count (Graph.random_gnp rng 10 1.0));
  let g = Graph.random_connected_gnp rng 20 0.05 in
  Alcotest.(check bool) "forced connectivity" true (Graph.is_connected g)

(* --- permutations ----------------------------------------------------------- *)

let arb_perm n =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Perm.pp p)
    (QCheck.Gen.map
       (fun seed -> Perm.random (Rng.create seed) n)
       QCheck.Gen.(int_bound 1_000_000))

let prop_perm_compose_inverse =
  QCheck.Test.make ~name:"p o p^-1 = id" ~count:200 (arb_perm 12) (fun p ->
      Perm.is_identity (Perm.compose p (Perm.inverse p)) && Perm.is_identity (Perm.compose (Perm.inverse p) p))

let prop_perm_compose_assoc =
  QCheck.Test.make ~name:"composition associative" ~count:100
    (QCheck.triple (arb_perm 9) (arb_perm 9) (arb_perm 9)) (fun (a, b, c) ->
      Perm.equal (Perm.compose a (Perm.compose b c)) (Perm.compose (Perm.compose a b) c))

let prop_relabel_compose =
  QCheck.Test.make ~name:"relabel by composition = composed relabel" ~count:100
    (QCheck.pair (arb_perm 8) (arb_perm 8)) (fun (a, b) ->
      let rng = Rng.create 5 in
      let g = Graph.random_gnp rng 8 0.4 in
      Graph.equal
        (Graph.relabel g (Perm.to_array (Perm.compose a b)))
        (Graph.relabel (Graph.relabel g (Perm.to_array b)) (Perm.to_array a)))

let test_perm_validation () =
  Alcotest.check_raises "not injective" (Invalid_argument "Perm.of_array: not injective") (fun () ->
      ignore (Perm.of_array [| 0; 0; 1 |]));
  Alcotest.check_raises "out of range" (Invalid_argument "Perm.of_array: out of range") (fun () ->
      ignore (Perm.of_array [| 0; 3 |]))

let test_perm_all_count () =
  Alcotest.(check int) "4! perms" 24 (List.length (Perm.all 4));
  let distinct = List.sort_uniq Stdlib.compare (List.map Perm.to_array (Perm.all 4)) in
  Alcotest.(check int) "all distinct" 24 (List.length distinct)

let test_perm_apply_set () =
  let p = Perm.of_array [| 1; 2; 0; 3 |] in
  let s = Bitset.of_list 4 [ 0; 2 ] in
  Alcotest.(check (list int)) "image" [ 0; 1 ] (Bitset.to_list (Perm.apply_set p s))

let test_transposition () =
  let t = Perm.transposition 5 1 3 in
  Alcotest.(check int) "t 1" 3 (Perm.apply t 1);
  Alcotest.(check int) "t 3" 1 (Perm.apply t 3);
  Alcotest.(check int) "fixes 0" 0 (Perm.apply t 0);
  Alcotest.(check int) "fixpoints" 3 (Perm.fixpoint_count t)

(* --- iso / automorphisms ----------------------------------------------------- *)

let test_symmetric_classics () =
  List.iter
    (fun (name, g) -> Alcotest.(check bool) name true (Iso.is_symmetric g))
    [ ("path P5 (reversal)", Graph.path 5);
      ("cycle C6", Graph.cycle 6);
      ("complete K5", Graph.complete 5);
      ("star S6", Graph.star 6);
      ("petersen", Graph.petersen ());
      ("hypercube Q3", Graph.hypercube 3);
      ("K_{3,3}", Graph.complete_bipartite 3 3)
    ]

let smallest_asymmetric () =
  (* The 6-vertex asymmetric graph: a triangle with pendant paths of lengths
     1, 2 and 0 attached to distinct corners... we use the standard example
     X_6: path 0-1-2-3-4 plus edges 1-5, 2-5. *)
  Graph.of_edges 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (1, 5); (2, 5) ]

let test_asymmetric_example () =
  let g = smallest_asymmetric () in
  Alcotest.(check bool) "asymmetric" true (Iso.is_asymmetric g);
  Alcotest.(check int) "automorphism count 1" 1 (Iso.automorphism_count g)

let test_automorphism_count_classics () =
  Alcotest.(check int) "K4 has 24" 24 (Iso.automorphism_count (Graph.complete 4));
  Alcotest.(check int) "C5 has 10" 10 (Iso.automorphism_count (Graph.cycle 5));
  Alcotest.(check int) "P4 has 2" 2 (Iso.automorphism_count (Graph.path 4))

let test_found_automorphism_is_valid () =
  List.iter
    (fun g ->
      match Iso.find_nontrivial_automorphism g with
      | None -> Alcotest.fail "expected automorphism"
      | Some rho ->
        Alcotest.(check bool) "valid" true (Iso.is_automorphism g rho);
        Alcotest.(check bool) "non-trivial" false (Perm.is_identity rho))
    [ Graph.cycle 8; Graph.petersen (); Graph.hypercube 4; Graph.star 10 ]

let test_brute_force_agreement () =
  (* On every graph of a deterministic sample at n = 6, the backtracking
     search must agree with exhaustive enumeration. *)
  let rng = Rng.create 2024 in
  for _ = 1 to 60 do
    let g = Graph.random_gnp rng 6 0.45 in
    let brute = Iso.automorphism_count g > 1 in
    Alcotest.(check bool) "search = brute force" brute (Iso.is_symmetric g)
  done

let test_isomorphism_of_relabelling () =
  let rng = Rng.create 7 in
  for _ = 1 to 30 do
    let g = Graph.random_gnp rng 10 0.4 in
    let p = Perm.random rng 10 in
    let h = Graph.relabel g (Perm.to_array p) in
    match Iso.find_isomorphism g h with
    | None -> Alcotest.fail "relabelling must be isomorphic"
    | Some rho -> Alcotest.(check bool) "witness valid" true (Iso.is_isomorphism g h rho)
  done

let test_non_isomorphic_detected () =
  let g1 = Graph.cycle 6 in
  let g2 = Graph.disjoint_union (Graph.cycle 3) (Graph.cycle 3) in
  Alcotest.(check bool) "C6 vs 2xC3" false (Iso.are_isomorphic g1 g2);
  (* Same degree sequence, different structure. *)
  let star_plus = Graph.of_edges 5 [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2) ] in
  let path_plus = Graph.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4); (1, 3) ] in
  Alcotest.(check bool) "5-vertex pair" false (Iso.are_isomorphic star_plus path_plus)

let test_canonical_small () =
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let g = Graph.random_gnp rng 6 0.5 in
    let p = Perm.random rng 6 in
    let h = Graph.relabel g (Perm.to_array p) in
    Alcotest.(check string) "canonical invariant" (Iso.canonical_small g) (Iso.canonical_small h)
  done;
  let c6 = Graph.cycle 6 and two_c3 = Graph.disjoint_union (Graph.cycle 3) (Graph.cycle 3) in
  Alcotest.(check bool) "distinct classes differ" true (Iso.canonical_small c6 <> Iso.canonical_small two_c3)

let test_refine_colors_orbits () =
  (* In a star, the center must get a different color from the leaves. *)
  let colors = Iso.refine_colors (Graph.star 6) in
  Alcotest.(check bool) "center separated" true (colors.(0) <> colors.(1));
  for v = 2 to 5 do
    Alcotest.(check int) "leaves alike" colors.(1) colors.(v)
  done

(* --- spanning trees ---------------------------------------------------------- *)

let test_bfs_tree_valid () =
  let rng = Rng.create 9 in
  for _ = 1 to 20 do
    let g = Graph.random_connected_gnp rng 15 0.3 in
    let t = Spanning_tree.bfs g 0 in
    Alcotest.(check bool) "valid" true (Spanning_tree.is_valid g t)
  done

let test_bfs_distances_are_shortest () =
  let g = Graph.cycle 8 in
  let t = Spanning_tree.bfs g 0 in
  Alcotest.(check int) "dist to 4" 4 t.Spanning_tree.dist.(4);
  Alcotest.(check int) "dist to 7" 1 t.Spanning_tree.dist.(7)

let test_bfs_disconnected_rejected () =
  let g = Graph.of_edges 4 [ (0, 1) ] in
  Alcotest.check_raises "disconnected" (Invalid_argument "Spanning_tree.bfs: graph not connected") (fun () ->
      ignore (Spanning_tree.bfs g 0))

let test_subtree_partition () =
  let g = Graph.star 7 in
  let t = Spanning_tree.bfs g 0 in
  Alcotest.(check (list int)) "root subtree is everything" [ 0; 1; 2; 3; 4; 5; 6 ] (Spanning_tree.subtree t 0);
  Alcotest.(check (list int)) "leaf subtree" [ 3 ] (Spanning_tree.subtree t 3);
  Alcotest.(check (list int)) "children of root" [ 1; 2; 3; 4; 5; 6 ] (Spanning_tree.children t 0)

let test_tree_validation_catches_forgery () =
  let g = Graph.cycle 6 in
  let t = Spanning_tree.bfs g 0 in
  let forged = { t with Spanning_tree.dist = Array.map (fun d -> d + 1) t.Spanning_tree.dist } in
  Alcotest.(check bool) "bad root distance" false (Spanning_tree.is_valid g forged);
  let bad_parent = Array.copy t.Spanning_tree.parent in
  bad_parent.(3) <- 0;
  (* 0 is not adjacent to 3 in C6 *)
  Alcotest.(check bool) "non-edge parent" false
    (Spanning_tree.is_valid g { t with Spanning_tree.parent = bad_parent })

(* The Stdlib.Queue search that Spanning_tree.bfs replaced, as the oracle
   for its labels. *)
let queue_bfs g root =
  let n = Graph.n g in
  let parent = Array.make n (-1) and dist = Array.make n (-1) in
  parent.(root) <- root;
  dist.(root) <- 0;
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Bitset.iter
      (fun u ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          parent.(u) <- v;
          Queue.add u queue
        end)
      (Graph.neighbors g v)
  done;
  (parent, dist)

let test_bfs_order () =
  let rng = Rng.create 31 in
  let graphs =
    [ ("dense gnp", Graph.random_connected_gnp rng 40 0.2, 7);
      ("dense expander", Family.expander ~repr:Graph.Dense (Rng.create 5) ~n:64 ~degree:6, 0);
      ("sparse expander", Family.expander ~repr:Graph.Sparse (Rng.create 6) ~n:500 ~degree:4, 499);
      ("sparse path", Graph.path ~repr:Graph.Sparse 30, 12);
      ("single", Graph.make 1, 0)
    ]
  in
  List.iter
    (fun (name, g, root) ->
      let t, order = Spanning_tree.bfs_order g root in
      let parent, dist = queue_bfs g root in
      Alcotest.(check (array int)) (name ^ ": parent = queue search") parent t.Spanning_tree.parent;
      Alcotest.(check (array int)) (name ^ ": dist = queue search") dist t.Spanning_tree.dist;
      Alcotest.(check bool) (name ^ ": bfs = bfs_order") true (Spanning_tree.bfs g root = t);
      Alcotest.(check int) (name ^ ": order starts at the root") root order.(0);
      Alcotest.(check (list int))
        (name ^ ": order is a permutation")
        (List.init (Graph.n g) Fun.id)
        (List.sort compare (Array.to_list order));
      Array.iteri
        (fun j v ->
          if j > 0 then
            Alcotest.(check bool) (name ^ ": dist non-decreasing") true (dist.(order.(j - 1)) <= dist.(v)))
        order)
    graphs

(* --- families ---------------------------------------------------------------- *)

let test_random_asymmetric () =
  let rng = Rng.create 31 in
  List.iter
    (fun n ->
      let g = Family.random_asymmetric rng n in
      Alcotest.(check bool) "connected" true (Graph.is_connected g);
      Alcotest.(check bool) "asymmetric" true (Iso.is_asymmetric g))
    [ 6; 7; 8; 12 ]

let test_random_asymmetric_small_rejected () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "n=4 impossible"
    (Invalid_argument "Family.random_asymmetric: no asymmetric graph exists for 2 <= n <= 5") (fun () ->
      ignore (Family.random_asymmetric rng 4))

let test_random_symmetric () =
  let rng = Rng.create 5 in
  List.iter
    (fun n ->
      let g = Family.random_symmetric rng n in
      Alcotest.(check bool) "connected" true (Graph.is_connected g);
      Alcotest.(check bool) "symmetric" true (Iso.is_symmetric g))
    [ 4; 6; 8; 14; 21 ]

let test_asymmetric_family_pairwise () =
  let rng = Rng.create 12 in
  let fam = Family.asymmetric_family rng ~n:7 ~size:5 in
  Alcotest.(check int) "size" 5 (List.length fam);
  List.iteri
    (fun i g ->
      Alcotest.(check bool) "asymmetric" true (Iso.is_asymmetric g);
      List.iteri (fun j h -> if i < j then Alcotest.(check bool) "non-isomorphic" false (Iso.are_isomorphic g h)) fam)
    fam

(* The crucial combinatorial fact behind both Section 3.3 and the Section 3.4
   lower bound: the dumbbell G(F_A, F_B) is symmetric iff F_A = F_B. *)
let test_dumbbell_symmetry_iff_equal_sides () =
  let rng = Rng.create 77 in
  let fam = Family.asymmetric_family rng ~n:6 ~size:4 in
  List.iteri
    (fun i f_a ->
      List.iteri
        (fun j f_b ->
          let g = Family.dumbbell f_a f_b in
          Alcotest.(check bool)
            (Printf.sprintf "dumbbell (%d,%d) symmetric iff same side" i j)
            (i = j) (Iso.is_symmetric g))
        fam)
    fam

let test_dumbbell_mirror_is_automorphism () =
  let rng = Rng.create 41 in
  let f = Family.random_asymmetric rng 6 in
  let g = Family.dumbbell f f in
  let m = Family.dumbbell_mirror 6 in
  Alcotest.(check bool) "mirror valid" true (Iso.is_automorphism g m);
  Alcotest.(check bool) "mirror non-trivial" false (Perm.is_identity m);
  Alcotest.(check int) "x_a index" 12 (Family.dumbbell_x_a f);
  Alcotest.(check int) "x_b index" 13 (Family.dumbbell_x_b f)

let test_dsym_membership () =
  let rng = Rng.create 6 in
  let f = Family.random_asymmetric rng 6 in
  let g = Family.dsym_graph f 2 in
  Alcotest.(check int) "vertex count 2n+2r+1" 17 (Graph.n g);
  Alcotest.(check bool) "member" true (Family.is_dsym_member ~n:6 ~r:2 g);
  Alcotest.(check bool) "sigma is automorphism" true (Iso.is_automorphism g (Family.dsym_sigma ~n:6 ~r:2));
  Alcotest.(check bool) "graph is symmetric" true (Iso.is_symmetric g)

let test_dsym_sigma_involution () =
  let s = Family.dsym_sigma ~n:5 ~r:3 in
  Alcotest.(check bool) "involution" true (Perm.is_identity (Perm.compose s s));
  Alcotest.(check bool) "non-trivial" false (Perm.is_identity s);
  (* Spot-check the path reversal clauses of Definition 5. *)
  Alcotest.(check int) "2n -> 2n+2r" 16 (Perm.apply s 10);
  Alcotest.(check int) "2n+1 -> 2n+2r-1" 15 (Perm.apply s 11)

let test_dsym_perturbed_is_no_instance () =
  let rng = Rng.create 10 in
  let f = Family.random_asymmetric rng 6 in
  for _ = 1 to 10 do
    let bad = Family.dsym_perturbed rng f 2 in
    Alcotest.(check bool) "not a member" false (Family.is_dsym_member ~n:6 ~r:2 bad);
    Alcotest.(check bool) "still connected" true (Graph.is_connected bad)
  done

let suite =
  [ ( "bitset",
      [ Alcotest.test_case "basic ops" `Quick test_bitset_basic;
        Alcotest.test_case "bounds checked" `Quick test_bitset_bounds;
        Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
        Alcotest.test_case "sparse mirrors dense" `Quick test_bitset_sparse_mirrors_dense;
        qtest prop_bitset_list_roundtrip;
        qtest prop_bitset_fold_right;
        qtest prop_bitset_equal_total
      ] );
    ( "graph",
      [ Alcotest.test_case "edges" `Quick test_graph_edges;
        Alcotest.test_case "self-loops rejected" `Quick test_graph_self_loop_rejected;
        Alcotest.test_case "closed neighborhood" `Quick test_closed_neighborhood;
        Alcotest.test_case "connectivity" `Quick test_connectivity;
        Alcotest.test_case "induced subgraph" `Quick test_induced;
        Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
        Alcotest.test_case "relabel" `Quick test_relabel;
        Alcotest.test_case "encode" `Quick test_encode;
        Alcotest.test_case "generators" `Quick test_generators_shape;
        Alcotest.test_case "gnp extremes" `Quick test_random_gnp_extremes
      ] );
    ( "perm",
      [ Alcotest.test_case "validation" `Quick test_perm_validation;
        Alcotest.test_case "all 4! permutations" `Quick test_perm_all_count;
        Alcotest.test_case "apply_set" `Quick test_perm_apply_set;
        Alcotest.test_case "transposition" `Quick test_transposition;
        qtest prop_perm_compose_inverse;
        qtest prop_perm_compose_assoc;
        qtest prop_relabel_compose
      ] );
    ( "iso",
      [ Alcotest.test_case "classic symmetric graphs" `Quick test_symmetric_classics;
        Alcotest.test_case "smallest asymmetric graph" `Quick test_asymmetric_example;
        Alcotest.test_case "automorphism counts" `Quick test_automorphism_count_classics;
        Alcotest.test_case "returned witness valid" `Quick test_found_automorphism_is_valid;
        Alcotest.test_case "agrees with brute force (n=6)" `Quick test_brute_force_agreement;
        Alcotest.test_case "isomorphism of relabelling" `Quick test_isomorphism_of_relabelling;
        Alcotest.test_case "non-isomorphic detected" `Quick test_non_isomorphic_detected;
        Alcotest.test_case "canonical form invariant" `Quick test_canonical_small;
        Alcotest.test_case "color refinement orbits" `Quick test_refine_colors_orbits
      ] );
    ( "spanning_tree",
      [ Alcotest.test_case "bfs tree valid" `Quick test_bfs_tree_valid;
        Alcotest.test_case "bfs shortest distances" `Quick test_bfs_distances_are_shortest;
        Alcotest.test_case "disconnected rejected" `Quick test_bfs_disconnected_rejected;
        Alcotest.test_case "subtrees and children" `Quick test_subtree_partition;
        Alcotest.test_case "validation catches forgery" `Quick test_tree_validation_catches_forgery;
        Alcotest.test_case "bfs order and labels" `Quick test_bfs_order
      ] );
    ( "family",
      [ Alcotest.test_case "random asymmetric" `Quick test_random_asymmetric;
        Alcotest.test_case "asymmetric impossible small n" `Quick test_random_asymmetric_small_rejected;
        Alcotest.test_case "random symmetric" `Quick test_random_symmetric;
        Alcotest.test_case "family pairwise non-isomorphic" `Quick test_asymmetric_family_pairwise;
        Alcotest.test_case "dumbbell symmetric iff equal sides" `Quick test_dumbbell_symmetry_iff_equal_sides;
        Alcotest.test_case "dumbbell mirror automorphism" `Quick test_dumbbell_mirror_is_automorphism;
        Alcotest.test_case "DSym membership" `Quick test_dsym_membership;
        Alcotest.test_case "DSym sigma involution" `Quick test_dsym_sigma_involution;
        Alcotest.test_case "DSym perturbation is NO instance" `Quick test_dsym_perturbed_is_no_instance
      ] )
  ]
