open Graphlib

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let test_make_basic () =
  let g = Graph.make ~n:4 [ (0, 1); (1, 2); (3, 1) ] in
  check ci "n" 4 (Graph.n g);
  check ci "m" 3 (Graph.m g);
  check ci "degree 1" 3 (Graph.degree g 1);
  check ci "degree 3" 1 (Graph.degree g 3);
  check ci "max degree" 3 (Graph.max_degree g);
  check cb "has (1,3)" true (Graph.has_edge g 1 3);
  check cb "has (3,1)" true (Graph.has_edge g 3 1);
  check cb "no (0,3)" false (Graph.has_edge g 0 3)

let test_make_rejects_self_loop () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.make: self-loop at 2") (fun () ->
      ignore (Graph.make ~n:3 [ (2, 2) ]))

let test_make_rejects_duplicate () =
  (try
     ignore (Graph.make ~n:3 [ (0, 1); (1, 0) ]);
     Alcotest.fail "expected duplicate rejection"
   with Invalid_argument _ -> ());
  try
    ignore (Graph.make ~n:3 [ (0, 1); (0, 1) ]);
    Alcotest.fail "expected duplicate rejection"
  with Invalid_argument _ -> ()

let test_make_rejects_out_of_range () =
  try
    ignore (Graph.make ~n:3 [ (0, 3) ]);
    Alcotest.fail "expected range rejection"
  with Invalid_argument _ -> ()

let test_dedup () =
  let g = Graph.of_edges_dedup ~n:4 [ (0, 1); (1, 0); (2, 2); (1, 2) ] in
  check ci "m" 2 (Graph.m g)

let test_edge_endpoints_ordered () =
  let g = Graph.make ~n:3 [ (2, 0); (1, 2) ] in
  Graph.iter_edges (fun _ u v -> check cb "ordered" true (u < v)) g

let test_find_edge () =
  let g = Graph.make ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4); (2, 3) ] in
  let e = Graph.find_edge g 3 2 in
  check (Alcotest.pair ci ci) "endpoints" (2, 3) (Graph.edge g e);
  check ci "other endpoint" 2 (Graph.other_endpoint g e 3);
  Alcotest.check_raises "not adjacent" Not_found (fun () ->
      ignore (Graph.find_edge g 1 2))

let test_add_remove () =
  let g = Graph.make ~n:4 [ (0, 1); (1, 2) ] in
  let g2 = Graph.add_edges g [ (2, 3) ] in
  check ci "m grew" 3 (Graph.m g2);
  check cb "new edge" true (Graph.has_edge g2 2 3);
  let g3, remap = Graph.remove_edges g2 (fun e -> Graph.edge g2 e = (1, 2)) in
  check ci "m shrank" 2 (Graph.m g3);
  check cb "old edge kept" true (Graph.has_edge g3 0 1);
  check ci "removed maps to -1" (-1)
    remap.(Graph.find_edge g2 1 2)

let test_add_duplicate_rejected () =
  let g = Graph.make ~n:3 [ (0, 1) ] in
  try
    ignore (Graph.add_edges g [ (1, 0) ]);
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_induced () =
  let g = Generators.grid 3 3 in
  let sub, back = Graph.induced g [ 0; 1; 3; 4 ] in
  check ci "sub n" 4 (Graph.n sub);
  check ci "sub m" 4 (Graph.m sub);
  check ci "mapping" 3 back.(2)

(* The all-edges [Graph.induced]: scan every edge of [g] in id order
   and keep those with both endpoints in [vs].  [Graph.induced] walks
   only the members' incidences and must build the very same subgraph,
   edge ids included. *)
let induced_all_edges g vs =
  let vs = Array.of_list vs in
  let back = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace back v i) vs;
  let edges = ref [] in
  Graph.iter_edges
    (fun _ u v ->
      match (Hashtbl.find_opt back u, Hashtbl.find_opt back v) with
      | Some iu, Some iv -> edges := (iu, iv) :: !edges
      | _ -> ())
    g;
  (Graph.make ~n:(Array.length vs) (List.rev !edges), vs)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let test_induced_qcheck =
  QCheck.Test.make ~name:"induced == all-edges reference" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 1 + Random.State.int rng 30 in
      let g = Generators.gnp rng n (Random.State.float rng 0.5) in
      let all = Array.init n Fun.id in
      shuffle rng all;
      let keep = Random.State.float rng 1.0 in
      let some = List.filter (fun _ -> Random.State.float rng 1.0 < keep) in
      let same vs =
        let sub, back = Graph.induced g vs in
        let sub', back' = induced_all_edges g vs in
        Graph.n sub = Graph.n sub'
        && Graph.endpoints sub = Graph.endpoints sub'
        && back = back'
      in
      same [] && same (Array.to_list all) && same (some (Array.to_list all)))

let test_disjoint_union () =
  let g = Graph.disjoint_union (Generators.cycle 3) (Generators.path 2) in
  check ci "n" 5 (Graph.n g);
  check ci "m" 4 (Graph.m g);
  check cb "shifted edge" true (Graph.has_edge g 3 4)

let test_equal () =
  let g1 = Graph.make ~n:3 [ (0, 1); (1, 2) ] in
  let g2 = Graph.make ~n:3 [ (1, 2); (0, 1) ] in
  check cb "equal up to order" true (Graph.equal g1 g2);
  check cb "different" false (Graph.equal g1 (Generators.path 3 |> fun g -> Graph.add_edges g [(0,2)]))

(* ------------------------------------------------------------------ *)
(* Union-find                                                          *)
(* ------------------------------------------------------------------ *)

let test_union_find () =
  let uf = Union_find.create 6 in
  check ci "count" 6 (Union_find.count uf);
  check cb "union new" true (Union_find.union uf 0 1);
  check cb "union again" false (Union_find.union uf 1 0);
  check cb "same" true (Union_find.same uf 0 1);
  check cb "not same" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  check ci "size" 4 (Union_find.size uf 2);
  check ci "count after" 3 (Union_find.count uf)

let test_union_find_qcheck =
  QCheck.Test.make ~name:"union-find agrees with component labels" ~count:100
    QCheck.(pair (int_range 2 40) (list (pair (int_range 0 39) (int_range 0 39))))
    (fun (n, pairs) ->
      let pairs = List.filter (fun (a, b) -> a < n && b < n) pairs in
      let uf = Union_find.create n in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* reference: BFS components of the multigraph *)
      let g = Graph.of_edges_dedup ~n pairs in
      let comp, _ = Traversal.components g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Union_find.same uf a b <> (comp.(a) = comp.(b)) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Traversal                                                           *)
(* ------------------------------------------------------------------ *)

let test_bfs_grid () =
  let g = Generators.grid 4 5 in
  let t = Traversal.bfs g 0 in
  check ci "dist to far corner" 7 t.Traversal.dist.(19);
  check ci "root parent" (-1) t.Traversal.parent.(0);
  check ci "order covers" 20 (Array.length t.Traversal.order);
  (* parent distances decrease by one *)
  Array.iter
    (fun v ->
      if v <> 0 then
        check ci "parent one closer" (t.Traversal.dist.(v) - 1)
          t.Traversal.dist.(t.Traversal.parent.(v)))
    t.Traversal.order

let test_bfs_unreachable () =
  let g = Graph.make ~n:4 [ (0, 1) ] in
  let t = Traversal.bfs g 0 in
  check ci "unreachable dist" (-1) t.Traversal.dist.(3);
  check ci "unreachable parent" (-2) t.Traversal.parent.(3)

let test_components () =
  let g = Graph.disjoint_union (Generators.cycle 3) (Generators.path 4) in
  let comp, c = Traversal.components g in
  check ci "two components" 2 c;
  check cb "split" true (comp.(0) <> comp.(5));
  check cb "together" true (comp.(3) = comp.(6))

let test_connectivity () =
  check cb "grid connected" true (Traversal.is_connected (Generators.grid 3 3));
  check cb "disjoint not" false
    (Traversal.is_connected
       (Graph.disjoint_union (Generators.path 2) (Generators.path 2)))

let test_diameter () =
  check ci "path" 9 (Traversal.diameter (Generators.path 10));
  check ci "cycle" 5 (Traversal.diameter (Generators.cycle 10));
  check ci "grid" 7 (Traversal.diameter (Generators.grid 4 5));
  check ci "star" 2 (Traversal.diameter (Generators.star 10));
  check ci "complete" 1 (Traversal.diameter (Generators.complete 5))

let test_is_forest () =
  check cb "path" true (Traversal.is_forest (Generators.path 5));
  check cb "tree" true
    (Traversal.is_forest (Generators.random_tree (Random.State.make [| 1 |]) 40));
  check cb "cycle" false (Traversal.is_forest (Generators.cycle 4))

let test_spanning_forest () =
  let g = Generators.grid 4 4 in
  let es = Traversal.spanning_forest g in
  check ci "n-1 edges" 15 (List.length es);
  let f, _ = Graph.remove_edges g (fun e -> not (List.mem e es)) in
  check cb "forest" true (Traversal.is_forest f);
  check cb "connected" true (Traversal.is_connected f)

let test_bipartite () =
  check cb "grid bipartite" true (Traversal.is_bipartite (Generators.grid 5 5));
  check cb "even cycle" true (Traversal.is_bipartite (Generators.cycle 8));
  check cb "odd cycle" false (Traversal.is_bipartite (Generators.cycle 9));
  check cb "K3" false (Traversal.is_bipartite (Generators.complete 3));
  check cb "K34" true
    (Traversal.is_bipartite (Generators.complete_bipartite 3 4))

let test_odd_cycle_witness () =
  match Traversal.odd_cycle_witness (Generators.cycle 5) with
  | Some (u, v) ->
      check cb "witness is edge" true (Graph.has_edge (Generators.cycle 5) u v)
  | None -> Alcotest.fail "expected an odd-cycle witness"

(* ------------------------------------------------------------------ *)
(* Girth                                                               *)
(* ------------------------------------------------------------------ *)

let test_girth_known () =
  let some = Alcotest.option ci in
  check some "cycle 7" (Some 7) (Girth.girth (Generators.cycle 7));
  check some "grid" (Some 4) (Girth.girth (Generators.grid 3 4));
  check some "K4" (Some 3) (Girth.girth (Generators.complete 4));
  check some "petersen" (Some 5) (Girth.girth (Generators.petersen ()));
  check some "tree" None (Girth.girth (Generators.path 6));
  check some "hypercube" (Some 4) (Girth.girth (Generators.hypercube 4))

let test_girth_upto () =
  let some = Alcotest.option ci in
  check some "truncated misses" None
    (Girth.girth_upto (Generators.cycle 12) 11);
  check some "truncated finds" (Some 12)
    (Girth.girth_upto (Generators.cycle 12) 12)

let test_break_short_cycles () =
  let rng = Random.State.make [| 4 |] in
  let g = Generators.gnp rng 60 0.15 in
  let g', removed = Girth.break_short_cycles g 6 in
  check cb "some removed" true (removed > 0);
  check ci "edges accounted" (Graph.m g) (Graph.m g' + removed);
  match Girth.girth g' with
  | Some girth -> check cb "girth >= 6" true (girth >= 6)
  | None -> ()

let test_girth_qcheck =
  QCheck.Test.make ~name:"girth via truncation agrees with full search"
    ~count:60
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.gnp rng 25 0.12 in
      Girth.girth g = Girth.girth_upto g 25)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_generator_sizes () =
  check ci "grid m" 24 (Graph.m (Generators.grid 4 4));
  check ci "torus m" 32 (Graph.m (Generators.torus 4 4));
  check ci "complete m" 10 (Graph.m (Generators.complete 5));
  check ci "bipartite m" 12 (Graph.m (Generators.complete_bipartite 3 4));
  check ci "hypercube m" 32 (Graph.m (Generators.hypercube 4));
  check ci "petersen m" 15 (Graph.m (Generators.petersen ()));
  check ci "star m" 7 (Graph.m (Generators.star 8));
  check ci "binary tree m" 9 (Graph.m (Generators.binary_tree 10))

let test_grid_dims () =
  (* Exact products, rows as close to sqrt n as possible, rows <= cols. *)
  let cp = Alcotest.(pair int int) in
  check cp "12" (3, 4) (Generators.grid_dims 12);
  check cp "16" (4, 4) (Generators.grid_dims 16);
  check cp "18" (3, 6) (Generators.grid_dims 18);
  check cp "100" (10, 10) (Generators.grid_dims 100);
  (* min_side pushes past factorizations with a too-small side:
     15 = 3 * 5 works at min_side 3 (torus), but 2 * 2 families don't. *)
  check cp "15 min_side 3" (3, 5) (Generators.grid_dims ~min_side:3 15);
  check cp "6 default" (2, 3) (Generators.grid_dims 6);
  (try
     ignore (Generators.grid_dims ~min_side:3 6);
     Alcotest.fail "expected Invalid_argument (6 has no side >= 3)"
   with Invalid_argument _ -> ());
  (* Primes have no factorization with both sides >= 2. *)
  (try
     ignore (Generators.grid_dims 13);
     Alcotest.fail "expected Invalid_argument (13 prime)"
   with Invalid_argument _ -> ());
  (* The generated graphs really have exactly n vertices. *)
  List.iter
    (fun n ->
      let r, c = Generators.grid_dims n in
      check ci "grid n" n (Graph.n (Generators.grid r c)))
    [ 6; 12; 35; 144 ];
  let r, c = Generators.grid_dims ~min_side:3 15 in
  check ci "torus n" 15 (Graph.n (Generators.torus r c))

let test_apollonian_maximal_planar () =
  let rng = Random.State.make [| 8 |] in
  let g = Generators.apollonian rng 50 in
  check ci "m = 3n - 6" (3 * 50 - 6) (Graph.m g);
  check cb "connected" true (Traversal.is_connected g)

let test_random_tree_is_tree () =
  let rng = Random.State.make [| 9 |] in
  let g = Generators.random_tree rng 64 in
  check ci "m" 63 (Graph.m g);
  check cb "forest" true (Traversal.is_forest g);
  check cb "connected" true (Traversal.is_connected g)

let test_far_from_planar_certified () =
  let rng = Random.State.make [| 10 |] in
  let g = Generators.far_from_planar rng ~n:80 ~eps:0.2 in
  check cb "certified far" true (Planarity.Distance.is_certified_far g ~eps:0.2)

let test_k5_necklace () =
  let g = Generators.k5_necklace 4 in
  check ci "n" 20 (Graph.n g);
  check cb "connected" true (Traversal.is_connected g);
  check ci "euler lb >= copies" 4 (max 4 (Planarity.Distance.euler_lower_bound g))

let test_connected_copies () =
  let g = Generators.connected_copies (Generators.cycle 4) 3 in
  check ci "n" 12 (Graph.n g);
  check ci "m" 14 (Graph.m g);
  check cb "connected" true (Traversal.is_connected g)

let test_relabel_preserves () =
  let rng = Random.State.make [| 11 |] in
  let g = Generators.grid 4 4 in
  let h = Generators.relabel rng g in
  check ci "n" (Graph.n g) (Graph.n h);
  check ci "m" (Graph.m g) (Graph.m h);
  check ci "diameter preserved" (Traversal.diameter g) (Traversal.diameter h)

let test_random_bipartite_planar () =
  let rng = Random.State.make [| 12 |] in
  let g = Generators.random_bipartite_planar rng 49 in
  check cb "bipartite" true (Traversal.is_bipartite g);
  check cb "connected" true (Traversal.is_connected g)

(* ------------------------------------------------------------------ *)
(* Gio                                                                 *)
(* ------------------------------------------------------------------ *)

let test_gio_roundtrip () =
  let g = Generators.petersen () in
  let g' = Gio.of_string (Gio.to_string g) in
  check cb "roundtrip" true (Graph.equal g g')

let test_gio_comments () =
  let g = Gio.of_string "# a comment\n3 1\n\n0 2\n" in
  check ci "n" 3 (Graph.n g);
  check cb "edge" true (Graph.has_edge g 0 2)

let test_gio_bad_input () =
  (try
     ignore (Gio.of_string "3 2\n0 1\n");
     Alcotest.fail "expected mismatch error"
   with Invalid_argument _ -> ());
  try
    ignore (Gio.of_string "nonsense\n");
    Alcotest.fail "expected parse error"
  with Invalid_argument _ -> ()

let test_gio_qcheck =
  QCheck.Test.make ~name:"gio roundtrips arbitrary graphs" ~count:50
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.gnp rng 20 0.2 in
      Graph.equal g (Gio.of_string (Gio.to_string g)))

let q = QCheck_alcotest.to_alcotest


(* ------------------------------------------------------------------ *)
(* Degeneracy and arboricity bounds                                    *)
(* ------------------------------------------------------------------ *)

let test_degeneracy_known () =
  check ci "tree" 1 (fst (Degeneracy.degeneracy (Generators.random_tree (Random.State.make [| 1 |]) 30)));
  check ci "cycle" 2 (fst (Degeneracy.degeneracy (Generators.cycle 9)));
  check ci "K5" 4 (fst (Degeneracy.degeneracy (Generators.complete 5)));
  check ci "grid" 2 (fst (Degeneracy.degeneracy (Generators.grid 5 5)));
  check ci "apollonian" 3
    (fst (Degeneracy.degeneracy (Generators.apollonian (Random.State.make [| 2 |]) 40)));
  check ci "empty" 0 (fst (Degeneracy.degeneracy (Graph.make ~n:4 [])))

let test_peeling_order_valid () =
  let g = Generators.apollonian (Random.State.make [| 3 |]) 50 in
  let d, order = Degeneracy.degeneracy g in
  let position = Array.make (Graph.n g) 0 in
  Array.iteri (fun i v -> position.(v) <- i) order;
  Array.iter
    (fun v ->
      let later =
        Array.fold_left
          (fun acc w -> if position.(w) > position.(v) then acc + 1 else acc)
          0 (Graph.neighbors g v)
      in
      check cb "back-degree bounded" true (later <= d))
    order

let test_arboricity_bounds () =
  (* planar: arboricity <= 3, so lower <= 3; degeneracy upper <= 5 *)
  let g = Generators.apollonian (Random.State.make [| 4 |]) 80 in
  let lo, hi = Degeneracy.arboricity_bounds g in
  check cb "bracket" true (lo <= hi);
  check cb "planar lower <= 3" true (lo <= 3);
  check cb "planar upper <= 5" true (hi <= 5);
  (* K5: arboricity = ceil(10/4) = 3 *)
  let lo5, _ = Degeneracy.arboricity_bounds (Generators.complete 5) in
  check ci "K5 nash-williams" 3 lo5

let test_degeneracy_qcheck =
  QCheck.Test.make ~name:"degeneracy bounds arboricity bracket" ~count:50
    QCheck.(pair (int_range 2 40) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.gnp rng n 0.3 in
      let lo, hi = Degeneracy.arboricity_bounds g in
      let d, _ = Degeneracy.degeneracy g in
      lo <= hi && hi <= max d lo && (Graph.m g = 0 || lo >= 1))

let () =
  Alcotest.run "graphlib"
    [
      ( "graph",
        [
          Alcotest.test_case "make basic" `Quick test_make_basic;
          Alcotest.test_case "self loops rejected" `Quick
            test_make_rejects_self_loop;
          Alcotest.test_case "duplicates rejected" `Quick
            test_make_rejects_duplicate;
          Alcotest.test_case "range checked" `Quick
            test_make_rejects_out_of_range;
          Alcotest.test_case "dedup" `Quick test_dedup;
          Alcotest.test_case "endpoints ordered" `Quick
            test_edge_endpoints_ordered;
          Alcotest.test_case "find edge" `Quick test_find_edge;
          Alcotest.test_case "add/remove" `Quick test_add_remove;
          Alcotest.test_case "add duplicate rejected" `Quick
            test_add_duplicate_rejected;
          Alcotest.test_case "induced" `Quick test_induced;
          q test_induced_qcheck;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "equality" `Quick test_equal;
        ] );
      ( "union-find",
        [
          Alcotest.test_case "basics" `Quick test_union_find;
          q test_union_find_qcheck;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs grid" `Quick test_bfs_grid;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "is_forest" `Quick test_is_forest;
          Alcotest.test_case "spanning forest" `Quick test_spanning_forest;
          Alcotest.test_case "bipartiteness" `Quick test_bipartite;
          Alcotest.test_case "odd cycle witness" `Quick test_odd_cycle_witness;
        ] );
      ( "girth",
        [
          Alcotest.test_case "known girths" `Quick test_girth_known;
          Alcotest.test_case "girth_upto" `Quick test_girth_upto;
          Alcotest.test_case "break short cycles" `Quick
            test_break_short_cycles;
          q test_girth_qcheck;
        ] );
      ( "generators",
        [
          Alcotest.test_case "sizes" `Quick test_generator_sizes;
          Alcotest.test_case "grid_dims exact n" `Quick test_grid_dims;
          Alcotest.test_case "apollonian maximal planar" `Quick
            test_apollonian_maximal_planar;
          Alcotest.test_case "random tree" `Quick test_random_tree_is_tree;
          Alcotest.test_case "far certified" `Quick
            test_far_from_planar_certified;
          Alcotest.test_case "k5 necklace" `Quick test_k5_necklace;
          Alcotest.test_case "connected copies" `Quick test_connected_copies;
          Alcotest.test_case "relabel preserves" `Quick test_relabel_preserves;
          Alcotest.test_case "random bipartite planar" `Quick
            test_random_bipartite_planar;
        ] );
      ( "degeneracy",
        [
          Alcotest.test_case "known values" `Quick test_degeneracy_known;
          Alcotest.test_case "peeling order" `Quick test_peeling_order_valid;
          Alcotest.test_case "arboricity bounds" `Quick test_arboricity_bounds;
          q test_degeneracy_qcheck;
        ] );
      ( "gio",
        [
          Alcotest.test_case "roundtrip" `Quick test_gio_roundtrip;
          Alcotest.test_case "comments and blanks" `Quick test_gio_comments;
          Alcotest.test_case "bad input" `Quick test_gio_bad_input;
          q test_gio_qcheck;
        ] );
    ]
