open Graphlib
module S = Partition.State

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let q = QCheck_alcotest.to_alcotest

let fresh_state g =
  let st = S.create g in
  Partition.Prims.refresh_roots st;
  st

(* ------------------------------------------------------------------ *)
(* Msg                                                                 *)
(* ------------------------------------------------------------------ *)

(* [Msg.int_cost] reads small magnitudes from a table; it must price
   every int exactly as the defining formula does, across the table,
   at its edges and at the extremes of [int]. *)
let formula_cost v = 2 + Congest.Bits.int_bits ~universe:(abs v + 2)

let test_int_cost_exact () =
  let bad = ref [] in
  let probe v =
    if Partition.Msg.int_cost v <> formula_cost v then bad := v :: !bad
  in
  for v = -(1 lsl 17) to 1 lsl 17 do
    probe v
  done;
  List.iter
    (fun e -> List.iter (fun d -> probe (e + d); probe (-(e + d))) [ -1; 0; 1 ])
    [ 1 lsl 12; 1 lsl 17; 1 lsl 30 ];
  List.iter probe [ min_int; min_int + 1; max_int; max_int - 1 ];
  check (Alcotest.list ci) "ints priced off the formula" [] !bad;
  check ci "list_cost sums int_cost"
    (List.fold_left (fun a v -> a + formula_cost v) 0 [ 0; -5; 4096; max_int ])
    (Partition.Msg.list_cost [ 0; -5; 4096; max_int ]);
  check ci "bits of a Down" (4 + formula_cost 7 + formula_cost 9000)
    (Partition.Msg.bits (Partition.Msg.Down (7, [ 9000 ])))

(* ------------------------------------------------------------------ *)
(* Prims                                                               *)
(* ------------------------------------------------------------------ *)

let test_refresh_roots () =
  let g = Generators.grid 3 3 in
  let st = fresh_state g in
  Array.iter
    (fun nd ->
      Array.iteri
        (fun port (nbr, _) ->
          check ci "initial part root = neighbor id" nbr
            nd.S.nbr_root.(port))
        (Graph.incident g nd.S.id))
    st.S.nodes

let test_bcast_converge_roundtrip () =
  (* Give node 0 the whole graph as one part with a path tree, broadcast a
     value down and sum ids back up. *)
  let g = Generators.path 6 in
  let st = fresh_state g in
  Array.iter
    (fun nd ->
      nd.S.part_root <- 0;
      nd.S.parent <- (if nd.S.id = 0 then -1 else nd.S.id - 1);
      nd.S.children <- (if nd.S.id = 5 then [] else [ nd.S.id + 1 ]))
    st.S.nodes;
  let got = Array.make 6 (-1) in
  Partition.Prims.bcast st ~budget:6 ~tag:1
    ~at_root:(fun _ -> Some [ 42 ])
    ~on_receive:(fun nd pl -> got.(nd.S.id) <- List.hd pl);
  Array.iter (fun v -> check ci "payload delivered" 42 v) got;
  let total = ref 0 in
  Partition.Prims.converge st ~budget:6 ~tag:2
    ~init:(fun nd -> nd.S.id)
    ~combine:( + )
    ~encode:(fun v -> [ v ])
    ~decode:(function [ v ] -> v | _ -> assert false)
    ~at_root:(fun _ v -> total := v);
  check ci "ids summed" 15 !total

let test_converge_budget_too_small () =
  let g = Generators.path 6 in
  let st = fresh_state g in
  Array.iter
    (fun nd ->
      nd.S.part_root <- 0;
      nd.S.parent <- (if nd.S.id = 0 then -1 else nd.S.id - 1);
      nd.S.children <- (if nd.S.id = 5 then [] else [ nd.S.id + 1 ]))
    st.S.nodes;
  try
    Partition.Prims.converge st ~budget:2 ~tag:3
      ~init:(fun nd -> nd.S.id)
      ~combine:( + )
      ~encode:(fun v -> [ v ])
      ~decode:(function [ v ] -> v | _ -> assert false)
      ~at_root:(fun _ _ -> ());
    Alcotest.fail "expected budget failure"
  with Failure _ -> ()

let test_boundary () =
  let g = Generators.path 3 in
  let st = fresh_state g in
  (* three singleton parts; everyone messages across every cut edge *)
  let seen = Array.make 3 [] in
  Partition.Prims.boundary st ~tag:4
    ~payload:(fun nd ~port:_ ~nbr:_ -> Some [ nd.S.id * 10 ])
    ~on_receive:(fun nd ~nbr pl -> seen.(nd.S.id) <- (nbr, List.hd pl) :: seen.(nd.S.id));
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "middle node hears both" [ (0, 0); (2, 20) ]
    (List.sort compare seen.(1))

(* ------------------------------------------------------------------ *)
(* Forest decomposition                                                *)
(* ------------------------------------------------------------------ *)

let run_fd g =
  let st = fresh_state g in
  let sr = Partition.Forest_decomp.super_rounds_for (Graph.n g) in
  let _ =
    Partition.Forest_decomp.run st ~alpha:3 ~super_rounds:sr
      ~budget:(max 1 (S.max_depth st))
  in
  st

let test_fd_orients_each_edge_once () =
  let g = Generators.apollonian (Random.State.make [| 2 |]) 120 in
  let st = run_fd g in
  check cb "no rejection" true (st.S.rejections = []);
  Graph.iter_edges
    (fun _ u v ->
      let a = List.mem_assoc v st.S.nodes.(u).S.out_edges in
      let b = List.mem_assoc u st.S.nodes.(v).S.out_edges in
      check cb "exactly one direction" true (a <> b))
    g

let test_fd_outdegree_bound () =
  let g = Generators.apollonian (Random.State.make [| 3 |]) 150 in
  let st = run_fd g in
  Array.iter
    (fun nd ->
      check cb "outdeg <= 3 alpha" true (List.length nd.S.out_edges <= 9))
    st.S.nodes

let test_fd_acyclic_orientation () =
  let g = Generators.apollonian (Random.State.make [| 4 |]) 100 in
  let st = run_fd g in
  (* deactivation rounds strictly increase along out-edges (ties by id) *)
  Array.iter
    (fun nd ->
      List.iter
        (fun (target, _) ->
          let t = st.S.nodes.(target) in
          check cb "order respects rounds" true
            (t.S.deact_round > nd.S.deact_round
            || (t.S.deact_round = nd.S.deact_round && nd.S.id < t.S.id)))
        nd.S.out_edges)
    st.S.nodes

let test_fd_rejects_dense () =
  let st = run_fd (Generators.complete 12) in
  check cb "K12 rejected (arboricity 6 > 3)" true (st.S.rejections <> [])

let test_fd_accepts_k10 () =
  let st = run_fd (Generators.complete 10) in
  check cb "K10 accepted (degree 9 = 3 * 3 alpha)" true (st.S.rejections = [])

let test_fd_weights_are_multiplicities () =
  let g = Generators.grid 5 5 in
  let st = run_fd g in
  Array.iter
    (fun nd ->
      List.iter
        (fun (_, w) -> check ci "singleton parts have unit weights" 1 w)
        nd.S.out_edges)
    st.S.nodes

let test_fd_planar_never_rejects_qcheck =
  QCheck.Test.make ~name:"forest decomposition never rejects planar graphs"
    ~count:40
    QCheck.(pair (int_range 3 80) (int_range 0 10000))
    (fun (n, seed) ->
      let g = Generators.apollonian (Random.State.make [| seed |]) n in
      (run_fd g).S.rejections = [])

(* ------------------------------------------------------------------ *)
(* Cole-Vishkin coloring                                               *)
(* ------------------------------------------------------------------ *)

let coloring_after_selection g =
  let st = run_fd g in
  Alcotest.(check bool) "fd ok" true (st.S.rejections = []);
  Partition.Merge.reset_phase_fields st;
  Partition.Merge.select_heaviest st;
  let budget = max 1 (S.max_depth st) in
  Partition.Merge.designate st ~budget;
  Partition.Merge.announce_and_resolve st ~budget;
  Partition.Cv_coloring.run st ~budget;
  st

let check_proper_coloring st =
  Array.iter
    (fun nd ->
      check cb "color in 1..3" true (nd.S.color >= 1 && nd.S.color <= 3);
      if nd.S.fsel_target >= 0 then begin
        let parent = st.S.nodes.(nd.S.fsel_target) in
        check cb "proper vs F-parent" true (nd.S.color <> parent.S.color);
        check ci "parent color known" parent.S.color nd.S.parent_color
      end)
    st.S.nodes

let test_cv_on_grid () = check_proper_coloring (coloring_after_selection (Generators.grid 7 7))

let test_cv_on_triangulation () =
  check_proper_coloring
    (coloring_after_selection
       (Generators.apollonian (Random.State.make [| 5 |]) 90))

let test_cv_iterations_bound () =
  check cb "log* -ish iterations" true
    (Partition.Cv_coloring.iterations_for 1_000_000 <= 8);
  check cb "small universe" true (Partition.Cv_coloring.iterations_for 6 = 0)

let test_cv_qcheck =
  QCheck.Test.make ~name:"cole-vishkin yields a proper 3-coloring of F"
    ~count:25
    QCheck.(pair (int_range 4 60) (int_range 0 10000))
    (fun (n, seed) ->
      let g = Generators.apollonian (Random.State.make [| seed |]) n in
      let st = coloring_after_selection g in
      Array.for_all
        (fun nd ->
          nd.S.color >= 1 && nd.S.color <= 3
          && (nd.S.fsel_target < 0
             || st.S.nodes.(nd.S.fsel_target).S.color <> nd.S.color))
        st.S.nodes)

(* ------------------------------------------------------------------ *)
(* Stage I                                                             *)
(* ------------------------------------------------------------------ *)

let test_stage1_invariants_and_cut () =
  let g = Generators.apollonian (Random.State.make [| 6 |]) 250 in
  let eps = 0.4 in
  let r = Partition.Stage1.run g ~eps in
  check cb "no rejection" true (r.Partition.Stage1.rejected = []);
  S.check_invariants r.Partition.Stage1.state;
  let cut = S.cut_edges r.Partition.Stage1.state in
  check cb "cut below target" true
    (float_of_int cut <= eps *. float_of_int (Graph.m g) /. 2.0)

let test_stage1_parts_connected () =
  let g = Generators.grid 9 9 in
  let r = Partition.Stage1.run g ~eps:0.5 in
  List.iter
    (fun (_, members) ->
      let sub, _ = Graph.induced g members in
      check cb "part connected" true (Traversal.is_connected sub))
    (S.parts r.Partition.Stage1.state)

let test_stage1_claim1_weight_decay () =
  (* Claim 1: each phase removes at least a 1/(12 alpha) = 1/36 fraction of
     the cut weight. *)
  let g = Generators.apollonian (Random.State.make [| 7 |]) 300 in
  let r = Partition.Stage1.run g ~eps:0.3 in
  List.iter
    (fun (p : Partition.Stage1.phase_trace) ->
      check cb "decay >= 1/36" true
        (float_of_int p.Partition.Stage1.cut_after
        <= (1.0 -. (1.0 /. 36.0)) *. float_of_int p.Partition.Stage1.cut_before
           +. 1e-9))
    r.Partition.Stage1.phases

let test_stage1_claim4_diameter () =
  let g = Generators.grid 10 10 in
  let r = Partition.Stage1.run g ~eps:0.3 in
  List.iter
    (fun (p : Partition.Stage1.phase_trace) ->
      check cb "diameter <= 4^i" true
        (float_of_int p.Partition.Stage1.max_diameter
        <= 4.0 ** float_of_int p.Partition.Stage1.phase))
    r.Partition.Stage1.phases

let test_stage1_deterministic () =
  let g = Generators.apollonian (Random.State.make [| 8 |]) 120 in
  let r1 = Partition.Stage1.run g ~eps:0.3 in
  let r2 = Partition.Stage1.run g ~eps:0.3 in
  check
    (Alcotest.list (Alcotest.pair ci (Alcotest.list ci)))
    "identical partitions"
    (S.parts r1.Partition.Stage1.state)
    (S.parts r2.Partition.Stage1.state)

let test_stage1_rejects_dense () =
  let r = Partition.Stage1.run (Generators.complete 16) ~eps:0.2 in
  check cb "K16 rejected in stage I" true (r.Partition.Stage1.rejected <> [])

let test_stage1_full_schedule () =
  (* stop_when_met:false runs the full Theta (log 1/eps) schedule. *)
  let g = Generators.grid 6 6 in
  let r = Partition.Stage1.run ~stop_when_met:false g ~eps:0.5 in
  check ci "full phase count"
    (Partition.Stage1.phases_for ~eps:0.5 ~alpha:3)
    (List.length r.Partition.Stage1.phases)

let test_phases_for_monotone () =
  check cb "more phases for smaller eps" true
    (Partition.Stage1.phases_for ~eps:0.05 ~alpha:3
    > Partition.Stage1.phases_for ~eps:0.5 ~alpha:3)

let test_stage1_qcheck =
  QCheck.Test.make
    ~name:"stage I on planar: no rejection, invariants, cut target" ~count:15
    QCheck.(pair (int_range 10 120) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.apollonian rng n in
      let eps = 0.3 +. Random.State.float rng 0.4 in
      let r = Partition.Stage1.run g ~eps in
      S.check_invariants r.Partition.Stage1.state;
      r.Partition.Stage1.rejected = []
      && float_of_int (S.cut_edges r.Partition.Stage1.state)
         <= eps *. float_of_int (Graph.m g) /. 2.0)

let test_stage1_trees_qcheck =
  QCheck.Test.make ~name:"stage I on assorted planar families" ~count:10
    QCheck.(int_range 0 10000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g =
        match seed mod 4 with
        | 0 -> Generators.random_tree rng 80
        | 1 -> Generators.cycle 60
        | 2 -> Generators.grid 8 8
        | _ -> Generators.random_planar rng ~n:80 ~m:150
      in
      let r = Partition.Stage1.run g ~eps:0.4 in
      S.check_invariants r.Partition.Stage1.state;
      r.Partition.Stage1.rejected = [])

(* ------------------------------------------------------------------ *)
(* Randomized partition (Theorem 4)                                    *)
(* ------------------------------------------------------------------ *)

let test_random_partition_invariants () =
  let g = Generators.apollonian (Random.State.make [| 9 |]) 200 in
  let r = Partition.Random_partition.run g ~eps:0.5 ~delta:0.1 ~seed:3 in
  S.check_invariants r.Partition.Random_partition.state;
  List.iter
    (fun (_, members) ->
      let sub, _ = Graph.induced g members in
      check cb "part connected" true (Traversal.is_connected sub))
    (S.parts r.Partition.Random_partition.state)

let test_random_partition_success_rate () =
  (* With delta = 0.2 at least ~80% of seeds should meet the cut target;
     allow slack for small-sample noise. *)
  let g = Generators.grid 10 10 in
  let ok = ref 0 in
  for seed = 0 to 14 do
    let r = Partition.Random_partition.run g ~eps:0.5 ~delta:0.2 ~seed in
    if float_of_int r.Partition.Random_partition.cut
       <= 0.5 *. float_of_int (Graph.n g)
    then incr ok
  done;
  check cb "most seeds succeed" true (!ok >= 11)

let test_random_partition_mutual_selection () =
  (* On a cycle with unit weights mutual selections are frequent; the
     resolution must still leave a consistent pseudo-forest and valid
     state. *)
  let g = Generators.cycle 40 in
  for seed = 0 to 9 do
    let r = Partition.Random_partition.run g ~eps:0.4 ~delta:0.3 ~seed in
    S.check_invariants r.Partition.Random_partition.state
  done

let test_trials_for () =
  check cb "more trials for smaller delta" true
    (Partition.Random_partition.trials_for ~delta:0.01
    > Partition.Random_partition.trials_for ~delta:0.5)

let test_random_partition_qcheck =
  QCheck.Test.make ~name:"randomized partition keeps state invariants"
    ~count:10
    QCheck.(pair (int_range 20 100) (int_range 0 10000))
    (fun (n, seed) ->
      let g = Generators.apollonian (Random.State.make [| seed |]) n in
      let r = Partition.Random_partition.run g ~eps:0.5 ~delta:0.2 ~seed in
      S.check_invariants r.Partition.Random_partition.state;
      true)


(* ------------------------------------------------------------------ *)
(* Differential: distributed emulation vs centralized reference        *)
(* ------------------------------------------------------------------ *)

let reference_agreement g eps =
  let d = Partition.Stage1.run g ~eps ~measure_diameters:false in
  let r = Partition.Reference.run g ~eps in
  let dist_part =
    Array.map (fun nd -> nd.S.part_root)
      d.Partition.Stage1.state.S.nodes
  in
  let dist_cuts =
    List.map (fun p -> p.Partition.Stage1.cut_after) d.Partition.Stage1.phases
  in
  dist_part = r.Partition.Reference.part
  && dist_cuts = r.Partition.Reference.cuts
  && (d.Partition.Stage1.rejected <> []) = r.Partition.Reference.rejected

let test_reference_matches () =
  check cb "grid" true (reference_agreement (Generators.grid 9 9) 0.4);
  check cb "tree" true
    (reference_agreement (Generators.random_tree (Random.State.make [| 40 |]) 120) 0.5);
  check cb "triangulation" true
    (reference_agreement
       (Generators.apollonian (Random.State.make [| 41 |]) 150)
       0.35)

let test_reference_matches_qcheck =
  QCheck.Test.make
    ~name:"emulation and centralized reference build identical partitions"
    ~count:20
    QCheck.(pair (int_range 10 120) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g =
        match seed mod 3 with
        | 0 -> Generators.apollonian rng n
        | 1 -> Generators.random_tree rng n
        | _ -> Generators.random_planar rng ~n ~m:(max (n - 1) (2 * n))
      in
      let eps = 0.3 +. Random.State.float rng 0.4 in
      reference_agreement g eps)


(* ------------------------------------------------------------------ *)
(* Exponential-shift partition (Section 1.1 remark)                    *)
(* ------------------------------------------------------------------ *)

let test_en_partition_basic () =
  let g = Generators.apollonian (Random.State.make [| 50 |]) 300 in
  let r = Partition.En_partition.run g ~eps:0.4 ~seed:2 in
  S.check_invariants r.Partition.En_partition.state;
  check cb "cut below eps m" true
    (float_of_int r.Partition.En_partition.cut
    <= 0.4 *. float_of_int (Graph.m g));
  List.iter
    (fun (_, members) ->
      let sub, _ = Graph.induced g members in
      check cb "part connected" true (Traversal.is_connected sub))
    (S.parts r.Partition.En_partition.state)

let test_en_partition_qcheck =
  QCheck.Test.make ~name:"exp-shift partition: invariants on planar inputs"
    ~count:15
    QCheck.(pair (int_range 20 150) (int_range 0 10000))
    (fun (n, seed) ->
      let g = Generators.apollonian (Random.State.make [| seed |]) n in
      let r = Partition.En_partition.run g ~eps:0.5 ~seed in
      S.check_invariants r.Partition.En_partition.state;
      List.for_all
        (fun (_, members) ->
          Traversal.is_connected (fst (Graph.induced g members)))
        (S.parts r.Partition.En_partition.state))

let () =
  Alcotest.run "partition"
    [
      ( "msg",
        [ Alcotest.test_case "int_cost matches the formula" `Quick
            test_int_cost_exact ] );
      ( "prims",
        [
          Alcotest.test_case "refresh roots" `Quick test_refresh_roots;
          Alcotest.test_case "bcast/converge" `Quick
            test_bcast_converge_roundtrip;
          Alcotest.test_case "converge budget check" `Quick
            test_converge_budget_too_small;
          Alcotest.test_case "boundary" `Quick test_boundary;
        ] );
      ( "forest-decomposition",
        [
          Alcotest.test_case "orients each edge once" `Quick
            test_fd_orients_each_edge_once;
          Alcotest.test_case "outdegree bound" `Quick test_fd_outdegree_bound;
          Alcotest.test_case "acyclic orientation" `Quick
            test_fd_acyclic_orientation;
          Alcotest.test_case "rejects K12" `Quick test_fd_rejects_dense;
          Alcotest.test_case "accepts K10" `Quick test_fd_accepts_k10;
          Alcotest.test_case "weights" `Quick test_fd_weights_are_multiplicities;
          q test_fd_planar_never_rejects_qcheck;
        ] );
      ( "cole-vishkin",
        [
          Alcotest.test_case "grid" `Quick test_cv_on_grid;
          Alcotest.test_case "triangulation" `Quick test_cv_on_triangulation;
          Alcotest.test_case "iteration bound" `Quick test_cv_iterations_bound;
          q test_cv_qcheck;
        ] );
      ( "stage1",
        [
          Alcotest.test_case "invariants and cut" `Quick
            test_stage1_invariants_and_cut;
          Alcotest.test_case "parts connected" `Quick
            test_stage1_parts_connected;
          Alcotest.test_case "claim 1 weight decay" `Quick
            test_stage1_claim1_weight_decay;
          Alcotest.test_case "claim 4 diameter" `Quick
            test_stage1_claim4_diameter;
          Alcotest.test_case "deterministic" `Quick test_stage1_deterministic;
          Alcotest.test_case "rejects dense" `Quick test_stage1_rejects_dense;
          Alcotest.test_case "full schedule" `Quick test_stage1_full_schedule;
          Alcotest.test_case "phases_for monotone" `Quick
            test_phases_for_monotone;
          q test_stage1_qcheck;
          q test_stage1_trees_qcheck;
        ] );
      ( "reference",
        [
          Alcotest.test_case "matches emulation" `Quick test_reference_matches;
          q test_reference_matches_qcheck;
        ] );
      ( "exp-shift",
        [
          Alcotest.test_case "basic" `Quick test_en_partition_basic;
          q test_en_partition_qcheck;
        ] );
      ( "randomized",
        [
          Alcotest.test_case "invariants" `Quick
            test_random_partition_invariants;
          Alcotest.test_case "success rate" `Quick
            test_random_partition_success_rate;
          Alcotest.test_case "mutual selection" `Quick
            test_random_partition_mutual_selection;
          Alcotest.test_case "trials_for" `Quick test_trials_for;
          q test_random_partition_qcheck;
        ] );
    ]
