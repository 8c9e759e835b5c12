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
    ~payload:(fun nd -> Some [ nd.S.id * 10 ])
    ~on_receive:(fun nd ~nbr pl -> seen.(nd.S.id) <- (nbr, List.hd pl) :: seen.(nd.S.id));
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "middle node hears both" [ (0, 0); (2, 20) ]
    (List.sort compare seen.(1))

(* Each lockstep kernel allocates per message sent, never per node
   stepped.  On warm serial
   states of singleton parts (a cycle of n nodes and one of 2n), the n
   extra nodes may cost a kernel
   the words of the message values they build ([msg_words] apiece: a
   [Root], a [Bdry] or a root's [Down]) plus at most one word each.  A
   closure, a boxed [Park] or an n-sized array per call or per node
   costs more.  The [wave] exchange sends one shared message per
   node, so its nodes may cost a word each and no more. *)
let kernel_payload = Some [ 1 ]
let wave_msg = Partition.Msg.Bdry (4, [ 1 ])

let alloc_kernels =
  [
    ("refresh_roots", 2, Partition.Prims.refresh_roots);
    ( "boundary",
      3,
      fun st ->
        Partition.Prims.boundary st ~tag:1
          ~payload:(fun _ -> kernel_payload)
          ~on_receive:(fun _ ~nbr:_ _ -> ()) );
    ( "bcast",
      3,
      fun st ->
        Partition.Prims.bcast st ~budget:2 ~tag:2
          ~at_root:(fun _ -> kernel_payload)
          ~on_receive:(fun _ _ -> ()) );
    ( "converge",
      0,
      fun st ->
        Partition.Prims.converge st ~budget:2 ~tag:3
          ~init:(fun nd -> nd.S.id)
          ~combine:( + )
          ~encode:(fun v -> [ v ])
          ~decode:(function [ v ] -> v | _ -> assert false)
          ~at_root:(fun _ _ -> ()) );
    ( "wave",
      0,
      fun st ->
        Partition.Prims.wave st ~budget:1
          ~start:(fun send nd ->
            send ~dest:(Graph.nbr st.S.graph nd.S.id 0) wave_msg)
          ~receive:(fun _ _ ~from:_ _ -> ()) );
  ]

(* Words allocated so far, minor and major heap alike (an n-sized array
   goes straight to the major heap).  [Gc.minor_words] is exact at any
   point; a promoted word is in both it and [promoted], so it counts
   once. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words one warm run allocates. *)
let kernel_words n run =
  let st = S.create (Generators.cycle n) in
  st.S.domains <- 1;
  run st;
  run st;
  let w0 = alloc_words () in
  run st;
  alloc_words () -. w0

let test_kernel_alloc_per_node () =
  let n = 2_000 in
  List.iter
    (fun (name, msg_words, run) ->
      let extra = kernel_words (2 * n) run -. kernel_words n run in
      let bound = float_of_int ((msg_words + 1) * n) in
      check cb
        (Printf.sprintf "%s: %d extra nodes cost %.0f words (<= %.0f)" name n
           extra bound)
        true (extra <= bound))
    alloc_kernels

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

(* The list-based notice counting [Forest_decomp.Table] replaced, kept
   here verbatim as the reference: notices accumulate with [add_count],
   a node's own value is [cap]ped, each child's [Up] payload is
   [decode]d and [combine]d in, and [encode] writes the result. *)
module Ref_counts = struct
  type agg = Many | Counts of (int * int) list

  let add_count lst r x =
    let rec go = function
      | [] -> [ (r, x) ]
      | (r', c) :: rest when r' = r -> (r', c + x) :: rest
      | p :: rest -> p :: go rest
    in
    go lst

  let cap alpha = function
    | Many -> Many
    | Counts lst -> if List.length lst > 3 * alpha then Many else Counts lst

  let combine alpha a b =
    match (a, b) with
    | Many, _ | _, Many -> Many
    | Counts la, Counts lb ->
        cap alpha
          (Counts (List.fold_left (fun acc (r, x) -> add_count acc r x) la lb))

  let encode = function
    | Many -> [ -1 ]
    | Counts lst -> List.concat_map (fun (r, x) -> [ r; x ]) lst

  let decode = function
    | [ -1 ] -> Many
    | l ->
        let rec pairs = function
          | [] -> []
          | r :: x :: rest -> (r, x) :: pairs rest
          | [ _ ] -> failwith "Forest_decomp.decode: odd payload"
        in
        Counts (pairs l)

  (* One node: its notices, then its children's payloads in order. *)
  let run ~alpha notices payloads =
    let notes = List.fold_left (fun l r -> add_count l r 1) [] notices in
    let own = cap alpha (Counts notes) in
    List.fold_left (fun acc pl -> combine alpha acc (decode pl)) own payloads
end

module Fd_table = Partition.Forest_decomp.Table

let outcome f = match f () with v -> Ok v | exception Failure m -> Error m

let ref_outcome ~alpha notices payloads =
  outcome (fun () ->
      let a = Ref_counts.run ~alpha notices payloads in
      ( Ref_counts.encode a,
        match a with
        | Ref_counts.Many -> None
        | Ref_counts.Counts l -> Some l ))

(* Node [v] of a shared table; the other nodes' streams are interleaved
   with [v]'s, so a write into the wrong slot shows up as a mismatch. *)
let table_outcome ~alpha streams v =
  let t = Fd_table.create ~nodes:(Array.length streams) ~alpha in
  Fd_table.clear t;
  let failed = Array.make (Array.length streams) None in
  let guard u f =
    if failed.(u) = None then
      match f () with () -> () | exception Failure m -> failed.(u) <- Some m
  in
  let longest =
    Array.fold_left
      (fun a (ns, ps) -> max a (max (List.length ns) (List.length ps)))
      0 streams
  in
  for i = 0 to longest - 1 do
    Array.iteri
      (fun u (ns, _) ->
        match List.nth_opt ns i with
        | Some r -> guard u (fun () -> Fd_table.add t u r 1)
        | None -> ())
      streams
  done;
  for i = 0 to longest - 1 do
    Array.iteri
      (fun u (_, ps) ->
        match List.nth_opt ps i with
        | Some pl -> guard u (fun () -> Fd_table.absorb t u pl)
        | None -> ())
      streams
  done;
  match failed.(v) with
  | Some m -> Error m
  | None ->
      Ok
        ( Fd_table.encode t v,
          match Fd_table.agg t v with
          | Partition.Forest_decomp.Many -> None
          | Partition.Forest_decomp.Counts l -> Some l )

let counts_outcome =
  Alcotest.(
    result
      (pair (list int) (option (list (pair int int))))
      string)

let check_table_matches ~alpha streams =
  Array.iteri
    (fun v (ns, ps) ->
      check counts_outcome
        (Printf.sprintf "alpha %d, node %d" alpha v)
        (ref_outcome ~alpha ns ps)
        (table_outcome ~alpha streams v))
    streams

let test_fd_table_edges () =
  let alpha = 3 in
  let k = 3 * alpha in
  let roots n = List.init n (fun i -> 100 + i) in
  let counts n =
    Ref_counts.encode
      (Ref_counts.Counts (List.map (fun r -> (r, 2)) (roots n)))
  in
  check_table_matches ~alpha
    [|
      (* exactly 3 alpha distinct roots fit; one more overflows *)
      (roots k, []);
      (roots (k + 1), []);
      (* repeated roots: counts add up, first-arrival order kept *)
      ([ 7; 3; 7; 7; 5; 3 ], []);
      (* children push the union to exactly 3 alpha, then past it *)
      (roots (k - 2), [ counts (k - 1) ]);
      (roots (k - 2), [ counts k; counts (k + 1) ]);
      (* a [Many] child, before and after real counts *)
      ([ 1; 2 ], [ [ -1 ] ]);
      ([ 1 ], [ [ 1; 4; 9; 2 ]; [ -1 ]; [ 3; 3 ] ]);
      (* odd payloads fail, also into an overflowed table *)
      ([ 1 ], [ [ 1; 2; 3 ] ]);
      (roots (k + 1), [ [ 5 ] ]);
      ([], []);
    |];
  check_table_matches ~alpha:1 [| (roots 3, []); (roots 4, [ [ -1; 4 ] ]) |]

let test_fd_table_qcheck =
  let open QCheck in
  let odd l = if List.length l mod 2 = 0 then 1 :: l else l in
  let payload =
    Gen.(
      frequency
        [
          (1, return [ -1 ]);
          (1, list_size (int_range 1 5) (int_range 0 12) >|= odd);
          ( 8,
            list_size (int_range 0 6) (pair (int_range 0 12) (int_range 1 5))
            >|= List.concat_map (fun (r, x) -> [ r; x ]) );
        ])
  in
  (* Roots from a small range, so repeats and overflows are common. *)
  let stream =
    Gen.(
      pair
        (list_size (int_range 0 14) (int_range 0 12))
        (list_size (int_range 0 4) payload))
  in
  Test.make ~name:"notice table == list-based counting" ~count:300
    (make Gen.(pair (int_range 1 3) (array_size (int_range 1 4) stream)))
    (fun (alpha, streams) ->
      check_table_matches ~alpha streams;
      true)

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

(* Stage I's simulated cost per phase, pinned as recorded before the
   lockstep kernels stopped allocating per node: a wire drift in
   refresh_roots, boundary, converge or bcast fails here, not only in
   the benchmark's pins.  A row is one phase's rounds, messages, bits,
   charged rounds and largest per-edge load, then its cut and part
   count ([rejected] for a phase that ended in rejection); the last row
   counts and digests the rejections.  Every domain count must give the
   pinned rows. *)
let stage1_rows ~domains g ~eps =
  let st = S.create g in
  st.S.domains <- domains;
  let segs = ref [] and prev = ref (Congest.Stats.copy st.S.stats) in
  (* Close a phase's segment; zeroing [max_edge_bits] makes the next
     segment's value its own. *)
  let cut () =
    let s = st.S.stats and p = !prev in
    let open Congest.Stats in
    segs :=
      Printf.sprintf "rounds=%d messages=%d bits=%d charged=%d max_edge_bits=%d"
        (s.rounds - p.rounds) (s.messages - p.messages)
        (s.total_bits - p.total_bits)
        (s.charged_rounds - p.charged_rounds)
        s.max_edge_bits
      :: !segs;
    prev := copy s;
    s.max_edge_bits <- 0
  in
  let r = Partition.Stage1.run ~state:st ~on_phase:(fun _ _ -> cut ()) g ~eps in
  cut ();
  List.mapi
    (fun i seg ->
      Printf.sprintf "phase %d: %s %s" (i + 1) seg
        (match List.nth_opt r.Partition.Stage1.phases i with
        | Some p ->
            Printf.sprintf "cut_after=%d parts=%d" p.Partition.Stage1.cut_after
              p.Partition.Stage1.parts
        | None -> "rejected"))
    (List.rev !segs)
  @ [
      Printf.sprintf "rejections=%d/%s"
        (List.length r.Partition.Stage1.rejected)
        (Digest.to_hex
           (Digest.string
              (String.concat "\n"
                 (List.map
                    (fun (v, why) -> Printf.sprintf "%d %s" v why)
                    r.Partition.Stage1.rejected))));
    ]

(* A far input plus a hub adjacent to 40 nodes (its notice table
   overflows): Stage I rejects in phase 2.  An apollonian input
   accepts after three phases. *)
let far_hub () =
  let g =
    Generators.far_from_planar (Random.State.make [| 3 |]) ~n:200 ~eps:0.5
  in
  let n = Graph.n g in
  Graph.add_edges
    (Graph.disjoint_union g (Generators.path 1))
    (List.init 40 (fun i -> (i * 5, n)))

let golden_stage1 =
  [
    ( "far+hub",
      far_hub,
      0.1,
      [
        "phase 1: rounds=182 messages=34476 bits=749643 charged=182 \
         max_edge_bits=33 cut_after=1048 parts=87";
        "phase 2: rounds=52 messages=30745 bits=627258 charged=52 \
         max_edge_bits=117 rejected";
        "rejections=20/9b79fcf19864e5321ff62511fddfce98";
      ] );
    ( "apollonian",
      (fun () -> Generators.apollonian (Random.State.make [| 9 |]) 300),
      0.3,
      [
        "phase 1: rounds=179 messages=25918 bits=569943 charged=179 \
         max_edge_bits=36 cut_after=584 parts=117";
        "phase 2: rounds=176 messages=31290 bits=682519 charged=176 \
         max_edge_bits=126 cut_after=228 parts=19";
        "phase 3: rounds=412 messages=29340 bits=630229 charged=412 \
         max_edge_bits=110 cut_after=102 parts=9";
        "rejections=0/d41d8cd98f00b204e9800998ecf8427e";
      ] );
  ]

let test_stage1_golden () =
  List.iter
    (fun (name, graph, eps, rows) ->
      let g = graph () in
      List.iter
        (fun domains ->
          check
            (Alcotest.list Alcotest.string)
            (Printf.sprintf "%s --domains %d" name domains)
            rows
            (stage1_rows ~domains g ~eps))
        [ 1; 4; 17 ])
    golden_stage1

(* The two alternative partitions' wire, pinned like Stage I's above:
   one row per (input, partition) with the run's rounds, messages,
   total bits, charged rounds, largest per-edge load and cut, then a
   digest of every node's (part_root, parent) pair.  Every domain count
   must give the pinned rows. *)
let partition_row ~domains g (name, run) =
  let st = S.create g in
  st.S.domains <- domains;
  let cut = run st g in
  let s = st.S.stats in
  let open Congest.Stats in
  Printf.sprintf
    "%s: rounds=%d messages=%d bits=%d charged=%d max_edge_bits=%d cut=%d \
     trees=%s"
    name s.rounds s.messages s.total_bits s.charged_rounds s.max_edge_bits cut
    (Digest.to_hex
       (Digest.string
          (String.concat ";"
             (Array.to_list
                (Array.map
                   (fun nd -> Printf.sprintf "%d,%d" nd.S.part_root nd.S.parent)
                   st.S.nodes)))))

let golden_partitions =
  [
    ( "exp-shifts",
      fun st g ->
        (Partition.En_partition.run ~seed:5 ~state:st g ~eps:0.8)
          .Partition.En_partition.cut );
    ( "randomized",
      fun st g ->
        (Partition.Random_partition.run ~state:st g ~eps:0.3 ~delta:0.1
           ~seed:5)
          .Partition.Random_partition.cut );
  ]

let golden_partition_inputs =
  [
    ( "grid",
      (fun () -> Generators.grid 20 20),
      [
        "exp-shifts: rounds=36 messages=6274 bits=212785 charged=36 \
         max_edge_bits=45 cut=184 trees=c5b8c423bae8a5e8372f35e196b58666";
        "randomized: rounds=3697 messages=157036 bits=3791353 charged=3697 \
         max_edge_bits=81 cut=98 trees=2d7d483952c7cbc503cd8d2280a7e219";
      ] );
    ( "far",
      (fun () ->
        Generators.far_from_planar (Random.State.make [| 3 |]) ~n:200 ~eps:0.5),
      [
        "exp-shifts: rounds=34 messages=10117 bits=354306 charged=34 \
         max_edge_bits=45 cut=69 trees=77046704728a56f449043b97c65a94f6";
        "randomized: rounds=2358 messages=137247 bits=3111425 charged=2358 \
         max_edge_bits=75 cut=0 trees=ad3d5f30f4e876dcf88e58a5f10ac22e";
      ] );
  ]

let test_partitions_golden () =
  List.iter
    (fun (name, graph, rows) ->
      let g = graph () in
      List.iter
        (fun domains ->
          check
            (Alcotest.list Alcotest.string)
            (Printf.sprintf "%s --domains %d" name domains)
            rows
            (List.map (partition_row ~domains g) golden_partitions))
        [ 1; 4; 17 ])
    golden_partition_inputs

(* A run that needs fewer workers than the process-wide team holds
   joins the surplus first, down to none for a serial run. *)
let test_team_trimmed () =
  let st = S.create (Generators.grid 8 8) in
  List.iter
    (fun (domains, workers) ->
      st.S.domains <- domains;
      Partition.Prims.refresh_roots st;
      check ci (Printf.sprintf "workers after a %d-domain run" domains) workers
        (S.Eng.team_size ()))
    [ (17, 16); (4, 3); (1, 0); (17, 16); (1, 0) ]

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
          Alcotest.test_case "kernels allocate per message" `Quick
            test_kernel_alloc_per_node;
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
          Alcotest.test_case "notice table edge cases" `Quick
            test_fd_table_edges;
          q test_fd_table_qcheck;
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
      ( "stage1-golden",
        [ Alcotest.test_case "golden Stage I costs" `Quick test_stage1_golden ]
      );
      ( "partition-golden",
        [
          Alcotest.test_case "golden partition costs" `Quick
            test_partitions_golden;
          Alcotest.test_case "narrower run joins surplus workers" `Quick
            test_team_trimmed;
        ] );
    ]
