open Graphlib

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let q = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Labels and violations (Definition 7, Claims 8-10)                   *)
(* ------------------------------------------------------------------ *)

let test_compare_label () =
  let c = Tester.Violation.compare_label in
  check cb "prefix smaller" true (c [ 1 ] [ 1; 2 ] < 0);
  check cb "lex" true (c [ 1; 3 ] [ 2 ] < 0);
  check cb "equal" true (c [ 2; 1 ] [ 2; 1 ] = 0);
  check cb "root smallest" true (c [] [ 1 ] < 0)

(* [compare_label] is a hand-written lexicographic walk; its sign must
   match the structural order on every pair, including empty labels and
   pairs that share a prefix (the second label is built from the first). *)
let test_compare_label_qcheck =
  let label = QCheck.(list_of_size Gen.(0 -- 6) (int_range (-3) 3)) in
  QCheck.Test.make ~name:"compare_label sign = Stdlib.compare" ~count:500
    QCheck.(triple label label (int_range 0 6))
    (fun (a, b, k) ->
      let shared = List.filteri (fun i _ -> i < k) a @ b in
      let sign x = Int.compare x 0 in
      List.for_all
        (fun (x, y) ->
          sign (Tester.Violation.compare_label x y) = sign (compare x y))
        [ (a, b); (b, a); (a, shared); (shared, a); (a, a); ([], a); (a, []) ])

let test_labels_on_star () =
  let g = Generators.star 4 in
  let tree = Traversal.bfs g 0 in
  let rot = Planarity.Rotation.of_adjacency_order g in
  let lab = Tester.Violation.labels g tree rot in
  check (Alcotest.list ci) "root label" [] lab.(0);
  let leaf_labels = List.sort compare [ lab.(1); lab.(2); lab.(3) ] in
  check
    (Alcotest.list (Alcotest.list ci))
    "leaves ranked" [ [ 1 ]; [ 2 ]; [ 3 ] ] leaf_labels

let test_labels_depth () =
  let g = Generators.path 5 in
  let tree = Traversal.bfs g 0 in
  let rot = Planarity.Rotation.of_adjacency_order g in
  let lab = Tester.Violation.labels g tree rot in
  check ci "label length = depth" 4 (List.length lab.(4))

let test_intersects () =
  let i = Tester.Violation.intersects in
  check cb "interleaved" true (i ([ 1 ], [ 3 ]) ([ 2 ], [ 4 ]));
  check cb "nested" false (i ([ 1 ], [ 4 ]) ([ 2 ], [ 3 ]));
  check cb "disjoint" false (i ([ 1 ], [ 2 ]) ([ 3 ], [ 4 ]));
  check cb "shared low endpoint" false (i ([ 1 ], [ 3 ]) ([ 1 ], [ 4 ]));
  check cb "shared high endpoint" false (i ([ 1 ], [ 3 ]) ([ 2 ], [ 3 ]));
  check cb "order-insensitive" true (i ([ 2 ], [ 4 ]) ([ 1 ], [ 3 ]));
  check cb "unsorted pairs accepted" true (i ([ 3 ], [ 1 ]) ([ 4 ], [ 2 ]))

let test_non_tree_edges () =
  let g = Generators.cycle 6 in
  let tree = Traversal.bfs g 0 in
  check ci "one non-tree edge" 1
    (List.length (Tester.Violation.non_tree_edges g tree))

let test_claim10_planar_no_violations () =
  List.iter
    (fun g -> check ci "planar: zero violating" 0 (Tester.Violation.count_violating g))
    [
      Generators.grid 7 9;
      Generators.apollonian (Random.State.make [| 1 |]) 150;
      Generators.cycle 17;
      Generators.random_tree (Random.State.make [| 2 |]) 60;
      Generators.complete 4;
      (let g = Generators.complete 5 in fst (Graph.remove_edges g (fun e -> e = 0)));
    ]

let test_violations_on_far_graphs () =
  List.iter
    (fun (g, at_least) ->
      check cb "many violating edges" true
        (List.length
           (let tree = Traversal.bfs g 0 in
            let rot, _ = Planarity.Lr.embed_or_adjacency g in
            Tester.Violation.violating_edges g tree rot)
        >= at_least))
    [
      (Generators.complete 5, 2);
      (Generators.complete 6, 4);
      (Generators.complete_bipartite 3 3, 2);
      (Generators.far_from_planar (Random.State.make [| 3 |]) ~n:60 ~eps:0.2, 12);
    ]

let test_claim10_qcheck =
  QCheck.Test.make
    ~name:"claim 10: planar graphs have no violating edges (corner keys)"
    ~count:150
    QCheck.(pair (int_range 4 70) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g =
        if seed mod 3 = 0 then Generators.apollonian rng n
        else
          Generators.random_planar rng ~n
            ~m:(max (n - 1) (Random.State.int rng ((3 * n) - 6)))
      in
      (not (Traversal.is_connected g))
      || Tester.Violation.count_violating g = 0)

let test_corollary9_qcheck =
  QCheck.Test.make
    ~name:"corollary 9: violating edges at least the certified distance"
    ~count:40
    QCheck.(pair (int_range 20 80) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.far_from_planar rng ~n ~eps:0.2 in
      Tester.Violation.count_violating g
      >= Planarity.Distance.euler_lower_bound g)

let test_scan_neighbor_rotation () =
  (* rotation [parent; a; b; c] with children {b}: a gets corner (0, 1),
     b rank 1, c corner (1, 1). *)
  let out = ref [] in
  Tester.Violation.scan_neighbor_rotation ~rotation:[| 9; 4; 5; 6 |] ~parent:9
    ~children:[ 5 ] (fun w rank t -> out := (w, rank, t) :: !out);
  check
    (Alcotest.list (Alcotest.triple ci ci ci))
    "scan order"
    [ (4, 0, 1); (5, 1, 0); (6, 1, 1) ]
    (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Stage II and the full tester                                        *)
(* ------------------------------------------------------------------ *)

let test_full_tester_accepts_planar () =
  List.iter
    (fun g ->
      check cb "planar accepted" true
        (Tester.Planarity_tester.accepts g ~eps:0.3 ~seed:1))
    [
      Generators.grid 9 9;
      Generators.apollonian (Random.State.make [| 4 |]) 180;
      Generators.random_tree (Random.State.make [| 5 |]) 120;
      Generators.cycle 50;
    ]

let test_full_tester_rejects_far () =
  List.iter
    (fun g ->
      check cb "far graph rejected" true
        (not (Tester.Planarity_tester.accepts g ~eps:0.15 ~seed:1)))
    [
      Generators.far_from_planar (Random.State.make [| 6 |]) ~n:150 ~eps:0.25;
      Generators.complete_bipartite 3 3;
      Generators.complete 6;
    ]

(* ------------------------------------------------------------------ *)
(* Engine-parameter invariance (PR 2 regression)                       *)
(* ------------------------------------------------------------------ *)

(* Everything observable about a run except the engine-internal state
   handle: verdict (hence the accept/reject transcript), all round and
   bandwidth accounting, and both stages' traces. *)
let report_fp (r : Tester.Planarity_tester.report) =
  ( r.Tester.Planarity_tester.verdict,
    r.Tester.Planarity_tester.rounds,
    r.Tester.Planarity_tester.nominal_rounds,
    r.Tester.Planarity_tester.messages,
    r.Tester.Planarity_tester.total_bits,
    r.Tester.Planarity_tester.fast_forwarded_rounds,
    Option.map
      (fun (s1 : Partition.Stage1.result) ->
        (s1.Partition.Stage1.rejected, s1.Partition.Stage1.phases,
         s1.Partition.Stage1.rounds, s1.Partition.Stage1.nominal_rounds))
      r.Tester.Planarity_tester.stage1,
    r.Tester.Planarity_tester.stage2 )

(* The tester's report must be identical for every engine domain count
   and with fast-forwarding on or off — the paper-level contract behind
   the parallel engine (see Congest.Engine). *)
let assert_engine_invariant name g ~eps ~expect_accept =
  let run ~domains ~fast_forward =
    Tester.Planarity_tester.run ~seed:2 ~domains ~fast_forward g ~eps
  in
  let serial = run ~domains:1 ~fast_forward:true in
  (match serial.Tester.Planarity_tester.verdict with
  | Tester.Planarity_tester.Accept ->
      check cb (name ^ ": accepts") true expect_accept
  | Tester.Planarity_tester.Reject _ ->
      check cb (name ^ ": rejects") false expect_accept
  | Tester.Planarity_tester.Degraded msg ->
      Alcotest.fail (name ^ ": degraded without faults: " ^ msg));
  let fp = report_fp serial in
  List.iter
    (fun d ->
      check cb
        (Printf.sprintf "%s: domains=%d report identical" name d)
        true
        (report_fp (run ~domains:d ~fast_forward:true) = fp))
    [ 2; 4 ];
  (* [fast_forwarded_rounds] is the one field allowed to differ: it
     records whether the shortcut was taken, and with the optimisation
     off it is 0 by construction. *)
  let zero_ff (v, r, nr, m, b, _ff, s1, s2) = (v, r, nr, m, b, 0, s1, s2) in
  let off = run ~domains:1 ~fast_forward:false in
  check ci (name ^ ": ff off skips nothing") 0
    off.Tester.Planarity_tester.fast_forwarded_rounds;
  check cb (name ^ ": fast-forward off report identical") true
    (zero_ff (report_fp off) = zero_ff fp)

let test_domains_invariant_apollonian () =
  assert_engine_invariant "apollonian"
    (Generators.apollonian (Random.State.make [| 5 |]) 96)
    ~eps:0.25 ~expect_accept:true

let test_domains_invariant_grid () =
  assert_engine_invariant "grid" (Generators.grid 8 8) ~eps:0.25
    ~expect_accept:true

let test_domains_invariant_far () =
  assert_engine_invariant "far-from-planar"
    (Generators.far_from_planar (Random.State.make [| 6 |]) ~n:80 ~eps:0.25)
    ~eps:0.15 ~expect_accept:false

let test_tester_k5_euler_reject () =
  (* K5 merges into a single part with m = 10 > 3n - 6 = 9: the Euler check
     inside stage II must fire. *)
  let r = Tester.Planarity_tester.run (Generators.complete 5) ~eps:0.1 in
  match r.Tester.Planarity_tester.verdict with
  | Tester.Planarity_tester.Accept -> Alcotest.fail "K5 accepted"
  | Tester.Planarity_tester.Reject _ -> ()
  | Tester.Planarity_tester.Degraded msg ->
      Alcotest.fail ("K5 degraded without faults: " ^ msg)

let test_tester_report_fields () =
  let g = Generators.grid 6 6 in
  let r = Tester.Planarity_tester.run g ~eps:0.4 in
  check cb "rounds positive" true (r.Tester.Planarity_tester.rounds > 0);
  check cb "nominal at least simulated-ish" true
    (r.Tester.Planarity_tester.nominal_rounds > 0);
  check cb "stage2 ran" true (r.Tester.Planarity_tester.stage2 <> None);
  match r.Tester.Planarity_tester.stage2 with
  | Some s2 ->
      check cb "sample target positive" true (s2.Tester.Stage2.sample_target > 0);
      List.iter
        (fun (p : Tester.Stage2.part_info) ->
          check cb "part sizes consistent" true
            (p.Tester.Stage2.m_edges >= p.Tester.Stage2.n_nodes - 1);
          check cb "non-tree consistent" true
            (p.Tester.Stage2.non_tree
            = p.Tester.Stage2.m_edges - (p.Tester.Stage2.n_nodes - 1));
          check cb "planar parts embed" true p.Tester.Stage2.embedding_planar)
        s2.Tester.Stage2.parts
  | None -> ()

let test_stage2_part_counts () =
  let g = Generators.apollonian (Random.State.make [| 7 |]) 100 in
  let r = Tester.Planarity_tester.run g ~eps:0.4 in
  match r.Tester.Planarity_tester.stage2 with
  | Some s2 ->
      let total_nodes =
        List.fold_left
          (fun acc (p : Tester.Stage2.part_info) ->
            acc + p.Tester.Stage2.n_nodes)
          0 s2.Tester.Stage2.parts
      in
      check ci "nodes partitioned" 100 total_nodes;
      let total_edges =
        List.fold_left
          (fun acc (p : Tester.Stage2.part_info) ->
            acc + p.Tester.Stage2.m_edges)
          0 s2.Tester.Stage2.parts
      in
      let s1 = Option.get r.Tester.Planarity_tester.stage1 in
      check ci "edges = m - cut"
        (Graph.m g - Partition.State.cut_edges s1.Partition.Stage1.state)
        total_edges
  | None -> Alcotest.fail "stage2 missing"

let test_completeness_qcheck =
  QCheck.Test.make
    ~name:"one-sided error: planar inputs always accepted (all seeds)"
    ~count:30
    QCheck.(triple (int_range 10 100) (int_range 0 10000) (int_range 0 5))
    (fun (n, gseed, tseed) ->
      let rng = Random.State.make [| gseed |] in
      let g =
        match gseed mod 3 with
        | 0 -> Generators.apollonian rng n
        | 1 -> Generators.random_planar rng ~n ~m:(max (n - 1) (2 * n))
        | _ -> Generators.random_tree rng n
      in
      (not (Traversal.is_connected g))
      || Tester.Planarity_tester.accepts g ~eps:0.35 ~seed:tseed)

let test_soundness_qcheck =
  QCheck.Test.make ~name:"certified 0.25-far graphs rejected w.h.p."
    ~count:20
    QCheck.(pair (int_range 60 140) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.far_from_planar rng ~n ~eps:0.25 in
      not (Tester.Planarity_tester.accepts g ~eps:0.2 ~seed))

(* ------------------------------------------------------------------ *)
(* Corollary 16 testers                                                *)
(* ------------------------------------------------------------------ *)

let test_cycle_freeness () =
  let tree = Generators.random_tree (Random.State.make [| 8 |]) 150 in
  check cb "forest accepted" true
    (Tester.Cycle_free_tester.accepts tree ~eps:0.3);
  let grid = Generators.grid 10 10 in
  check cb "grid rejected (far from forest)" false
    (Tester.Cycle_free_tester.accepts grid ~eps:0.3)

let test_cycle_freeness_randomized () =
  let tree = Generators.random_tree (Random.State.make [| 9 |]) 150 in
  check cb "forest accepted (randomized)" true
    (Tester.Cycle_free_tester.accepts
       ~partition:(Tester.Harness.Randomized 0.1) tree ~eps:0.3)

let test_bipartiteness () =
  let grid = Generators.grid 10 10 in
  check cb "grid accepted" true
    (Tester.Bipartite_tester.accepts grid ~eps:0.3);
  let tri = Generators.apollonian (Random.State.make [| 10 |]) 120 in
  check cb "triangulation rejected" false
    (Tester.Bipartite_tester.accepts tri ~eps:0.3)

let test_bipartite_one_sided_qcheck =
  QCheck.Test.make ~name:"bipartiteness tester accepts bipartite planar"
    ~count:20
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.random_bipartite_planar rng 64 in
      Tester.Bipartite_tester.accepts g ~eps:0.3)

let test_cycle_free_one_sided_qcheck =
  QCheck.Test.make ~name:"cycle-freeness tester accepts forests" ~count:20
    QCheck.(pair (int_range 5 120) (int_range 0 10000))
    (fun (n, seed) ->
      let g = Generators.random_tree (Random.State.make [| seed |]) n in
      Tester.Cycle_free_tester.accepts g ~eps:0.4)

(* ------------------------------------------------------------------ *)
(* Spanners                                                            *)
(* ------------------------------------------------------------------ *)

(* Every domain count a caller's state may carry: the spanners must come
   out the same under each. *)
let spanner_settings = [ 1; 4; 17 ]

let settings_state g domains =
  let st = Partition.State.create g in
  st.Partition.State.domains <- domains;
  st

let check_settings_agree name build =
  let serial = build None in
  List.iter
    (fun d ->
      check cb
        (Printf.sprintf "%s: domains=%d agrees with the default" name d)
        true
        (build (Some d) = serial))
    spanner_settings

(* Edge set (in construction order), rounds and nominal rounds. *)
let spanner_outcome ?partition ?seed g ~eps setting =
  let state = Option.map (settings_state g) setting in
  let r = Tester.Spanner.build ?partition ?seed ?state g ~eps in
  ( Graph.endpoints r.Tester.Spanner.spanner,
    r.Tester.Spanner.rounds,
    r.Tester.Spanner.nominal_rounds )

let en_outcome g ~k ~seed setting =
  let state = Option.map (settings_state g) setting in
  let r = Tester.Elkin_neiman.build ?state g ~k ~delta:0.2 ~seed in
  ( Graph.endpoints r.Tester.Elkin_neiman.spanner,
    r.Tester.Elkin_neiman.rounds,
    r.Tester.Elkin_neiman.failed )

let test_spanner_size_and_stretch () =
  let g = Generators.apollonian (Random.State.make [| 11 |]) 250 in
  let eps = 0.3 in
  let r = Tester.Spanner.build g ~eps in
  let sp = r.Tester.Spanner.spanner in
  check cb "subgraph size bound" true
    (float_of_int (Graph.m sp) <= (1.0 +. eps) *. float_of_int (Graph.n g));
  check cb "connected" true (Traversal.is_connected sp);
  let stretch = Tester.Spanner.measured_stretch g sp in
  check cb "measured within bound" true
    (stretch <= r.Tester.Spanner.stretch_bound);
  (* spanner is a subgraph *)
  Graph.iter_edges (fun _ u v -> check cb "edge of g" true (Graph.has_edge g u v)) sp;
  check_settings_agree "stage_one" (spanner_outcome g ~eps)

let test_spanner_tree_input () =
  let g = Generators.random_tree (Random.State.make [| 12 |]) 100 in
  let r = Tester.Spanner.build g ~eps:0.2 in
  check cb "tree spanner keeps connectivity" true
    (Traversal.is_connected r.Tester.Spanner.spanner)

let test_spanner_randomized_mode () =
  let g = Generators.apollonian (Random.State.make [| 13 |]) 200 in
  let partition = Tester.Harness.Randomized 0.1 in
  let r = Tester.Spanner.build ~partition ~seed:4 g ~eps:0.4 in
  check cb "connected" true (Traversal.is_connected r.Tester.Spanner.spanner);
  check_settings_agree "randomized"
    (spanner_outcome ~partition ~seed:4 g ~eps:0.4)

let test_spanner_qcheck =
  QCheck.Test.make ~name:"spanner: size bound and stretch on planar inputs"
    ~count:10
    QCheck.(pair (int_range 30 120) (int_range 0 10000))
    (fun (n, seed) ->
      let g = Generators.apollonian (Random.State.make [| seed |]) n in
      let r = Tester.Spanner.build g ~eps:0.5 in
      let sp = r.Tester.Spanner.spanner in
      float_of_int (Graph.m sp) <= 1.5 *. float_of_int n
      && Traversal.is_connected sp
      && Tester.Spanner.measured_stretch g sp <= r.Tester.Spanner.stretch_bound)

(* ------------------------------------------------------------------ *)
(* Elkin-Neiman baseline                                               *)
(* ------------------------------------------------------------------ *)

let test_en_stretch () =
  let g = Generators.apollonian (Random.State.make [| 14 |]) 150 in
  let k = 4 in
  let r = Tester.Elkin_neiman.build g ~k ~delta:0.2 ~seed:2 in
  if not r.Tester.Elkin_neiman.failed then begin
    check cb "connected" true
      (Traversal.is_connected r.Tester.Elkin_neiman.spanner);
    check cb "stretch <= 2k - 1" true
      (Tester.Spanner.measured_stretch g r.Tester.Elkin_neiman.spanner
      <= (2 * k) - 1)
  end

let test_en_rounds () =
  let g = Generators.grid 8 8 in
  let r = Tester.Elkin_neiman.build g ~k:5 ~delta:0.2 ~seed:1 in
  check ci "k rounds" 5 r.Tester.Elkin_neiman.rounds;
  (* Pinned from the node-program implementation: the port keeps each
     node's draws and the first-arrival tie rules, down to the order the
     edges are collected in. *)
  check ci "pinned edge count" 108 r.Tester.Elkin_neiman.edges;
  check Alcotest.int64 "pinned edge set" 1503593733665823712L
    (Graph.fingerprint r.Tester.Elkin_neiman.spanner);
  check cb "not failed" false r.Tester.Elkin_neiman.failed;
  check_settings_agree "elkin-neiman" (en_outcome g ~k:5 ~seed:1)

let test_en_qcheck =
  QCheck.Test.make ~name:"elkin-neiman: stretch bound when no failure"
    ~count:15
    QCheck.(triple (int_range 20 100) (int_range 2 8) (int_range 0 10000))
    (fun (n, k, seed) ->
      let g = Generators.apollonian (Random.State.make [| seed |]) n in
      let r = Tester.Elkin_neiman.build g ~k ~delta:0.2 ~seed in
      r.Tester.Elkin_neiman.failed
      || Tester.Spanner.measured_stretch g r.Tester.Elkin_neiman.spanner
         <= (2 * k) - 1)


(* ------------------------------------------------------------------ *)
(* Hereditary tester and the vertex-label ablation                     *)
(* ------------------------------------------------------------------ *)

(* The hereditary tester the paper sketches after Corollary 16, on the
   shared harness: Stage II checks each part's induced subgraph and
   rejects at the part root. *)
let hereditary_accepts g ~eps ~check_part =
  let _, t =
    Tester.Harness.run ~property:"hereditary" g ~eps
      ~stage2:(fun st ~eps:_ ~seed:_ ->
        List.iter
          (fun (root, members) ->
            if not (check_part (fst (Graph.induced g members))) then
              st.Partition.State.rejections <-
                (root, Printf.sprintf "part %d fails the property" root)
                :: st.Partition.State.rejections)
          (Partition.State.parts st))
  in
  t.Tester.Harness.verdict = Tester.Harness.Accept

let test_hereditary_planarity_as_property () =
  (* Use per-part planarity itself as a hereditary property. *)
  let planar_g = Generators.apollonian (Random.State.make [| 31 |]) 120 in
  let far_g = Generators.far_from_planar (Random.State.make [| 32 |]) ~n:120 ~eps:0.3 in
  check cb "planar parts pass" true
    (hereditary_accepts planar_g ~eps:0.3 ~check_part:Planarity.Lr.is_planar);
  check cb "far graph has a failing part" false
    (hereditary_accepts far_g ~eps:0.3 ~check_part:Planarity.Lr.is_planar)

let test_hereditary_max_degree () =
  (* "max degree <= 4" is hereditary; grids satisfy it, stars do not. *)
  let grid = Generators.grid 8 8 in
  let ok g = Graph.max_degree g <= 4 in
  check cb "grid passes" true (hereditary_accepts grid ~eps:0.3 ~check_part:ok);
  let star = Generators.star 30 in
  check cb "star fails" false (hereditary_accepts star ~eps:0.9 ~check_part:ok)

let test_vertex_label_ablation () =
  (* The paper's literal labeling falsely flags planar graphs; corner keys
     do not (the DESIGN.md correction). *)
  let g = Generators.apollonian (Random.State.make [| 33 |]) 60 in
  check cb "vertex labels break claim 10" true
    (Tester.Violation.count_violating_vertex_labels g > 0);
  check ci "corner keys obey claim 10" 0 (Tester.Violation.count_violating g)

let test_vertex_labels_still_sound () =
  (* Soundness (Claim 8 direction) holds for both labelings. *)
  let g = Generators.far_from_planar (Random.State.make [| 34 |]) ~n:80 ~eps:0.25 in
  check cb "vertex labels detect far" true
    (Tester.Violation.count_violating_vertex_labels g
     >= Planarity.Distance.euler_lower_bound g)


let test_collect_mode () =
  (* The in-model collect-and-embed mode must agree on the verdict. *)
  let planar_g = Generators.apollonian (Random.State.make [| 63 |]) 120 in
  let r =
    Tester.Planarity_tester.run ~embedding:Tester.Stage2.Collect planar_g
      ~eps:0.3 ~seed:1
  in
  (match r.Tester.Planarity_tester.verdict with
  | Tester.Planarity_tester.Accept -> ()
  | Tester.Planarity_tester.Reject _ ->
      Alcotest.fail "collect mode broke completeness"
  | Tester.Planarity_tester.Degraded msg ->
      Alcotest.fail ("collect mode degraded without faults: " ^ msg));
  let far_g =
    Generators.far_from_planar (Random.State.make [| 64 |]) ~n:120 ~eps:0.25
  in
  check cb "collect mode rejects far" false
    (match
       (Tester.Planarity_tester.run ~embedding:Tester.Stage2.Collect far_g
          ~eps:0.2 ~seed:1)
         .Tester.Planarity_tester.verdict
     with
    | Tester.Planarity_tester.Accept -> true
    | Tester.Planarity_tester.Reject _ | Tester.Planarity_tester.Degraded _ ->
        false)

let test_en_mode_completeness () =
  (* Exponential-shift partition mode keeps the verdict one-sided. *)
  for seed = 0 to 9 do
    let g = Generators.apollonian (Random.State.make [| seed; 61 |]) 150 in
    check cb "planar accepted (exp-shift mode)" true
      (Tester.Planarity_tester.accepts
         ~partition:Tester.Planarity_tester.Exponential_shifts g ~eps:0.3
         ~seed)
  done

let test_en_mode_soundness () =
  let g =
    Generators.far_from_planar (Random.State.make [| 62 |]) ~n:200 ~eps:0.25
  in
  check cb "far rejected (exp-shift mode)" false
    (Tester.Planarity_tester.accepts
       ~partition:Tester.Planarity_tester.Exponential_shifts g ~eps:0.2
       ~seed:3)

(* ------------------------------------------------------------------ *)
(* effective_eps clamp (Random_partition rescale)                      *)
(* ------------------------------------------------------------------ *)

let test_effective_eps_boundaries () =
  let cf = Alcotest.float 1e-12 in
  let invariant name g eps =
    let eps' = Tester.Harness.effective_eps g ~eps in
    check cb (name ^ ": eps' * n >= 1") true
      (eps' *. float_of_int (Graph.n g) >= 1.0);
    check cb (name ^ ": eps' <= 0.999") true (eps' <= 0.999)
  in
  (* Sparse graph, tiny eps: the raw rescale eps*m/n lands far below 1/n
     and must be clamped up to exactly 1/n. *)
  let path = Generators.path 1000 in
  check cf "sparse floor is 1/n" 0.001
    (Tester.Harness.effective_eps path ~eps:0.0001);
  invariant "path" path 0.0001;
  (* Dense graph, large eps: the rescale exceeds 1 and must cap at
     0.999. *)
  let dense = Generators.complete 50 in
  check cf "dense cap is 0.999" 0.999
    (Tester.Harness.effective_eps dense ~eps:0.9);
  (* Mid-range: no clamp, plain rescale eps * m / n. *)
  let grid = Generators.grid 10 10 in
  let eps = 0.3 in
  check cf "mid-range is eps*m/n"
    (eps *. float_of_int (Graph.m grid) /. float_of_int (Graph.n grid))
    (Tester.Harness.effective_eps grid ~eps);
  invariant "grid" grid eps;
  (* The degenerate regime that motivated the floor: m << n / eps used to
     produce a vacuous cut target (eps' * n < 1). *)
  let stars = Generators.star 5000 in
  invariant "star" stars 0.00001

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume                                                   *)
(* ------------------------------------------------------------------ *)

module PT = Tester.Planarity_tester

exception Simulated_kill

(* Interrupt a multi-phase Stage I run right after its first checkpoint
   save, resume from the (marshal round-tripped) snapshot, and demand the
   resumed run's full stats JSON — totals and per-round telemetry — is
   byte-identical to an uninterrupted run's. *)
let test_checkpoint_resume_byte_identical () =
  let g = Generators.grid 20 20 in
  let eps = 0.05 and seed = 2 in
  let stats_json r telemetry =
    Congest.Telemetry.Json.to_string
      (Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps ~seed
         ~domains:1 ~telemetry r)
  in
  let tel_ref = Congest.Telemetry.create () in
  let r_ref = PT.run ~telemetry:tel_ref g ~eps ~seed in
  (match r_ref.PT.stage1 with
  | Some s ->
      check cb "reference run is multi-phase" true
        (List.length s.Partition.Stage1.phases >= 2)
  | None -> Alcotest.fail "no stage1 result");
  let store = ref None in
  let tel1 = Congest.Telemetry.create () in
  let kill_ck =
    {
      PT.every = 1;
      load = (fun () -> None);
      save =
        (fun s ->
          (* Marshal round-trip: checks the snapshot really is
             marshal-safe AND deep-copies it, as the file container
             does. *)
          store := Some (Marshal.from_string (Marshal.to_string s []) 0);
          raise Simulated_kill);
    }
  in
  (try
     ignore (PT.run ~telemetry:tel1 ~checkpoint:kill_ck g ~eps ~seed);
     Alcotest.fail "simulated kill did not propagate"
   with Simulated_kill -> ());
  check cb "snapshot captured" true (!store <> None);
  let tel2 = Congest.Telemetry.create () in
  let resume_ck =
    { PT.every = 1; load = (fun () -> !store); save = (fun _ -> ()) }
  in
  let r2 = PT.run ~telemetry:tel2 ~checkpoint:resume_ck g ~eps ~seed in
  check Alcotest.string "stats JSON byte-identical after resume"
    (stats_json r_ref tel_ref) (stats_json r2 tel2)

(* A checkpointed-but-never-interrupted run must equal a plain run. *)
let test_checkpoint_passive_identical () =
  let g = Generators.grid 16 16 in
  let eps = 0.1 and seed = 5 in
  let r_ref = PT.run g ~eps ~seed in
  let store = ref None in
  let saves = ref 0 in
  let ck =
    {
      PT.every = 2;
      load = (fun () -> None);
      save =
        (fun s ->
          incr saves;
          store := Some (Marshal.from_string (Marshal.to_string s []) 0));
    }
  in
  let r = PT.run ~checkpoint:ck g ~eps ~seed in
  check cb "saved at least once" true (!saves >= 1);
  check cb "same verdict" true (r.PT.verdict = r_ref.PT.verdict);
  check ci "same rounds" r_ref.PT.rounds r.PT.rounds;
  check ci "same messages" r_ref.PT.messages r.PT.messages;
  check ci "same bits" r_ref.PT.total_bits r.PT.total_bits;
  (* And resuming from a mid-run snapshot of it also converges. *)
  let r3 =
    PT.run
      ~checkpoint:{ PT.every = 2; load = (fun () -> !store); save = ignore }
      g ~eps ~seed
  in
  check cb "resume from passive snapshot" true (r3.PT.verdict = r_ref.PT.verdict);
  check ci "resume rounds" r_ref.PT.rounds r3.PT.rounds

let test_checkpoint_rejects_exp_shifts () =
  let g = Generators.grid 8 8 in
  let ck = { PT.every = 1; load = (fun () -> None); save = ignore } in
  check cb "Exponential_shifts + checkpoint raises" true
    (try
       ignore
         (PT.run ~partition:PT.Exponential_shifts ~checkpoint:ck g ~eps:0.3
            ~seed:1);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Stage II shared broadcast values                                    *)
(* ------------------------------------------------------------------ *)

(* Stage II's part broadcasts carry one host value per part (the sample
   sorted once at the root, the rotation table), read by every node of
   the part.  That must be invisible: with the ids relabeled at
   random, the parts interleave in id order, and for either embedding
   mode the Stage II result and the stats JSON must not depend on the
   engine settings — fiber at 1, 4 and 17 domains (more domains than
   some live sets, so shards get single-node slices) or compiled.  One
   input accepts; the other rejects in Stage II on Definition 7. *)
let shared_decode_inputs =
  lazy
    (let rng = Random.State.make [| 131 |] in
     [
       ("grid", Generators.relabel rng (Generators.grid 10 10), 0.2, true);
       ( "planar+crossings",
         Generators.relabel rng
           (Generators.far_from_planar (Random.State.make [| 132 |]) ~n:100
              ~eps:0.02),
         0.3,
         false );
     ])

let stage2_run ~embedding ~domains g ~eps =
  let r = Tester.Planarity_tester.run ~seed:5 ~embedding ~domains g ~eps in
  let json =
    Report.Json.to_string
      (Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps ~seed:5
         ~domains:1 r)
  in
  (r.Tester.Planarity_tester.stage2, json)

let test_shared_decode_invisible () =
  List.iter
    (fun (name, g, eps, accepts) ->
      List.iter
        (fun (ename, embedding) ->
          let base_s2, base_json =
            stage2_run ~embedding ~domains:1 g ~eps
          in
          (* The input must exercise the path: several parts broadcast
             a non-empty sample. *)
          (match base_s2 with
          | Some s2 ->
              check cb (name ^ ": Stage II verdict") accepts
                s2.Tester.Stage2.accepted;
              check cb (name ^ ": several sampling parts") true
                (List.length
                   (List.filter
                      (fun (p : Tester.Stage2.part_info) ->
                        p.Tester.Stage2.sampled > 0)
                      s2.Tester.Stage2.parts)
                >= 2)
          | None -> Alcotest.fail (name ^ ": Stage II did not run"));
          List.iter
            (fun domains ->
              let s2, json = stage2_run ~embedding ~domains g ~eps in
              let tag = Printf.sprintf "%s/%s domains=%d" name ename domains in
              check cb (tag ^ ": Stage2.result") true (s2 = base_s2);
              check Alcotest.string (tag ^ ": stats JSON") base_json json)
            [ 4; 17 ])
        [ ("oracle", Tester.Stage2.Oracle); ("collect", Tester.Stage2.Collect) ])
    (Lazy.force shared_decode_inputs)

(* ------------------------------------------------------------------ *)
(* Stage II sample path: priced host values                            *)
(* ------------------------------------------------------------------ *)

module Prefix = Tester.Stage2.Prefix

(* The reference [Prefix.append] must match: the sample convergecast's
   combine on plain lists. *)
let list_combine ~cap (a, ta) (b, tb) =
  let all = a @ b in
  if List.length all > cap then (List.filteri (fun i _ -> i < cap) all, true)
  else (all, ta || tb)

(* A random binary combination tree over the chunks, in order, with
   [splits] choosing where each subtree splits.  A convergecast is one
   such tree: a node folds each child's result into its own stream. *)
let rec combine_tree ~leaf ~combine splits = function
  | [] -> invalid_arg "combine_tree"
  | [ x ] -> leaf x
  | chunks ->
      let k = List.length chunks in
      let cut = 1 + (List.hd splits mod (k - 1)) and rest = List.tl splits in
      let left = List.filteri (fun i _ -> i < cut) chunks
      and right = List.filteri (fun i _ -> i >= cut) chunks in
      combine
        (combine_tree ~leaf ~combine (rest @ [ 1 ]) left)
        (combine_tree ~leaf ~combine (rest @ [ 2 ]) right)

let test_prefix_qcheck =
  QCheck.Test.make ~name:"Prefix.append = take cap (a @ b)" ~count:500
    QCheck.(
      triple (int_range 0 12)
        (list_of_size Gen.(1 -- 8) (list_of_size Gen.(0 -- 8) small_int))
        (list_of_size Gen.(1 -- 8) small_nat))
    (fun (cap, chunks, splits) ->
      let price x = 1 + (x mod 5) in
      let got =
        combine_tree splits chunks
          ~leaf:(Prefix.of_list ~price)
          ~combine:(Prefix.append ~cap ~price)
      and want_items, want_trunc =
        combine_tree splits chunks
          ~leaf:(fun c -> (c, false))
          ~combine:(list_combine ~cap)
      in
      Prefix.to_list got = want_items
      && got.Prefix.truncated = want_trunc
      && got.Prefix.count = List.length want_items
      && got.Prefix.cost = List.fold_left (fun c x -> c + price x) 0 want_items)

(* The int-list encodings the held values stand for. *)
let encode_pairs pairs =
  List.concat_map
    (fun (a, b) -> (List.length a :: a) @ (List.length b :: b))
    pairs

(* Magnitudes on both sides of the price table's edge, far past it, and
   negative.  Corner keys reach past the edge: their infinity symbol is
   2n + 1, 4097 at n = 2048. *)
let wire_int =
  let r = Partition.Msg.table_radius in
  QCheck.Gen.(
    oneof
      [
        int_range 0 20;
        int_range (r - 6) (r + 100);
        int_range 100_000 2_000_000;
        int_range (-r - 900) (-1);
      ])

let test_held_price_qcheck =
  let label = QCheck.Gen.(list_size (0 -- 6) wire_int) in
  QCheck.Test.make ~name:"held values priced as their int-list encoding"
    ~count:300
    QCheck.(
      make
        Gen.(
          quad (int_range 0 6)
            (list_size (0 -- 8) (pair label label))
            (list_size (0 -- 8) (pair wire_int wire_int))
            (list_size (0 -- 5)
               (pair wire_int
                  (map Array.of_list (list_size (0 -- 5) wire_int))))))
    (fun (cap, pairs, edges, rows) ->
      let module M = Partition.Msg in
      let price (k : Tester.Stage2.keyed) = k.Tester.Stage2.price in
      let keyed = List.map Tester.Stage2.keyed pairs in
      let half = List.length keyed / 2 in
      let s =
        Prefix.append ~cap ~price
          (Prefix.of_list ~price (List.filteri (fun i _ -> i < half) keyed))
          (Prefix.of_list ~price (List.filteri (fun i _ -> i >= half) keyed))
      in
      let kept =
        List.map (fun k -> k.Tester.Stage2.pair) (Prefix.to_list s)
      in
      let flag = if s.Prefix.truncated then 1 else 0 in
      let e = Prefix.of_list ~price:Tester.Stage2.edge_price edges in
      M.bits (M.Held (88, Tester.Stage2.sample_msg s))
      = M.bits (M.Up (88, flag :: encode_pairs kept))
      && M.bits (M.Held (89, Tester.Stage2.sorted_sample_msg s))
         = M.bits (M.Down (89, encode_pairs kept))
      && M.bits (M.Held (90, Tester.Stage2.edges_msg e))
         = M.bits (M.Up (90, List.concat_map (fun (u, v) -> [ u; v ]) edges))
      && M.bits (M.Held (91, Tester.Stage2.rotations_msg rows))
         = M.bits
             (M.Down
                ( 91,
                  List.concat_map
                    (fun (v, row) ->
                      v :: Array.length row :: Array.to_list row)
                    rows )))

(* Labels from a tiny alphabet so that prefixes, ties and shared
   endpoints are common; pairs come in either order. *)
let test_crossing_qcheck =
  let label = QCheck.Gen.(list_size (0 -- 3) (int_range 0 2)) in
  QCheck.Test.make ~name:"crosses = exists intersects (all pairs)" ~count:500
    QCheck.(
      make
        Gen.(
          pair
            (list_size (0 -- 12) (pair label label))
            (list_size (1 -- 12) (pair label label))))
    (fun (sample, queries) ->
      let ix = Tester.Violation.crossing_index sample in
      List.for_all
        (fun q ->
          Tester.Violation.crosses ix q
          = List.exists (Tester.Violation.intersects q) sample)
        queries)

(* Stage II's simulated cost, pinned as recorded before the sample path
   carried priced host values: a pricing drift fails here, not only in
   the benchmark's pins. *)
let golden_row ~embedding g ~eps =
  let telemetry = Congest.Telemetry.create () in
  let r = Tester.Planarity_tester.run ~seed:5 ~embedding ~telemetry g ~eps in
  let charged =
    List.fold_left
      (fun acc (p : Congest.Telemetry.phase_view) -> acc + p.frames)
      0
      (Congest.Telemetry.phases telemetry)
  in
  let verdict, rejections =
    match r.Tester.Planarity_tester.verdict with
    | Tester.Planarity_tester.Accept -> ("accept", [])
    | Tester.Planarity_tester.Reject l -> ("reject", l)
    | Tester.Planarity_tester.Degraded m -> ("degraded " ^ m, [])
  in
  Printf.sprintf "%s rounds=%d messages=%d bits=%d charged=%d rejections=%d/%s"
    verdict r.Tester.Planarity_tester.rounds r.Tester.Planarity_tester.messages
    r.Tester.Planarity_tester.total_bits charged (List.length rejections)
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.map
                (fun (v, why) -> Printf.sprintf "%d %s" v why)
                rejections))))

let golden_rows =
  [
    ( "grid/oracle",
      "accept rounds=7287 messages=45879 bits=1886234 charged=8752 \
       rejections=0/d41d8cd98f00b204e9800998ecf8427e" );
    ( "grid/collect",
      "accept rounds=7323 messages=46075 bits=2264261 charged=9340 \
       rejections=0/d41d8cd98f00b204e9800998ecf8427e" );
    ( "planar+crossings/oracle",
      "reject rounds=382 messages=20312 bits=723383 charged=479 \
       rejections=71/dad5fb423435b5aaf7e84911b4059a36" );
    ( "planar+crossings/collect",
      "reject rounds=392 messages=20490 bits=1132523 charged=612 \
       rejections=71/dad5fb423435b5aaf7e84911b4059a36" );
  ]

let test_stage2_golden () =
  List.iter
    (fun (name, g, eps, _) ->
      List.iter
        (fun (ename, embedding) ->
          let key = name ^ "/" ^ ename in
          check Alcotest.string key
            (List.assoc key golden_rows)
            (golden_row ~embedding g ~eps))
        [
          ("oracle", Tester.Stage2.Oracle); ("collect", Tester.Stage2.Collect);
        ])
    (Lazy.force shared_decode_inputs)

let () =
  Alcotest.run "tester"
    [
      ( "violation",
        [
          Alcotest.test_case "compare_label" `Quick test_compare_label;
          Alcotest.test_case "labels on star" `Quick test_labels_on_star;
          Alcotest.test_case "label depth" `Quick test_labels_depth;
          Alcotest.test_case "intersects" `Quick test_intersects;
          Alcotest.test_case "non-tree edges" `Quick test_non_tree_edges;
          Alcotest.test_case "claim 10 cases" `Quick
            test_claim10_planar_no_violations;
          Alcotest.test_case "violations on far graphs" `Quick
            test_violations_on_far_graphs;
          Alcotest.test_case "scan rotation" `Quick
            test_scan_neighbor_rotation;
          q test_claim10_qcheck;
          q test_corollary9_qcheck;
          q test_compare_label_qcheck;
        ] );
      ( "planarity-tester",
        [
          Alcotest.test_case "accepts planar" `Quick
            test_full_tester_accepts_planar;
          Alcotest.test_case "rejects far" `Quick test_full_tester_rejects_far;
          Alcotest.test_case "K5 euler reject" `Quick
            test_tester_k5_euler_reject;
          Alcotest.test_case "report fields" `Quick test_tester_report_fields;
          Alcotest.test_case "part counts" `Quick test_stage2_part_counts;
          q test_completeness_qcheck;
          q test_soundness_qcheck;
        ] );
      ( "engine-invariance",
        [
          Alcotest.test_case "apollonian, domains 1/2/4 + ff off" `Quick
            test_domains_invariant_apollonian;
          Alcotest.test_case "grid, domains 1/2/4 + ff off" `Quick
            test_domains_invariant_grid;
          Alcotest.test_case "far graph, domains 1/2/4 + ff off" `Quick
            test_domains_invariant_far;
        ] );
      ( "eps-rescale",
        [
          Alcotest.test_case "effective_eps boundaries" `Quick
            test_effective_eps_boundaries;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill + resume is byte-identical" `Quick
            test_checkpoint_resume_byte_identical;
          Alcotest.test_case "passive checkpointing changes nothing" `Quick
            test_checkpoint_passive_identical;
          Alcotest.test_case "refused in exp-shift mode" `Quick
            test_checkpoint_rejects_exp_shifts;
        ] );
      ( "exp-shift-mode",
        [
          Alcotest.test_case "completeness" `Quick test_en_mode_completeness;
          Alcotest.test_case "collect-and-embed mode" `Quick test_collect_mode;
          Alcotest.test_case "soundness" `Quick test_en_mode_soundness;
        ] );
      ( "corollary-16",
        [
          Alcotest.test_case "cycle-freeness" `Quick test_cycle_freeness;
          Alcotest.test_case "cycle-freeness randomized" `Quick
            test_cycle_freeness_randomized;
          Alcotest.test_case "bipartiteness" `Quick test_bipartiteness;
          q test_bipartite_one_sided_qcheck;
          q test_cycle_free_one_sided_qcheck;
        ] );
      ( "hereditary-and-ablation",
        [
          Alcotest.test_case "planarity as hereditary property" `Quick
            test_hereditary_planarity_as_property;
          Alcotest.test_case "max-degree property" `Quick
            test_hereditary_max_degree;
          Alcotest.test_case "vertex-label ablation" `Quick
            test_vertex_label_ablation;
          Alcotest.test_case "vertex labels still sound" `Quick
            test_vertex_labels_still_sound;
        ] );
      ( "spanner",
        [
          Alcotest.test_case "size and stretch" `Quick
            test_spanner_size_and_stretch;
          Alcotest.test_case "tree input" `Quick test_spanner_tree_input;
          Alcotest.test_case "randomized mode" `Quick
            test_spanner_randomized_mode;
          q test_spanner_qcheck;
        ] );
      ( "elkin-neiman",
        [
          Alcotest.test_case "stretch" `Quick test_en_stretch;
          Alcotest.test_case "rounds" `Quick test_en_rounds;
          q test_en_qcheck;
        ] );
      ( "stage2-sample-path",
        [
          q test_prefix_qcheck;
          q test_held_price_qcheck;
          q test_crossing_qcheck;
          Alcotest.test_case "golden Stage II costs" `Quick test_stage2_golden;
        ] );
      ( "stage2-shared-decode",
        [
          Alcotest.test_case "invisible across domains and mode" `Quick
            test_shared_decode_invisible;
        ] );
    ]
