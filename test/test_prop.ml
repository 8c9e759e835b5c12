(* Property-based differential suite (qcheck, with shrinking).

   Three pillars, all driven by random graphs:

   - Stage I run on the simulator agrees with the centralized reference
     implementation (lib/partition/reference.ml) and leaves a partition
     state satisfying every structural invariant.

   - The tester's one-sided error survives the fault layer: on planar
     families the verdict is Accept or Degraded — never Reject — with
     faults off or on.

   - Stats accounting is a pure function of the input: identical across
     engine domain counts (1..PROP_DOMAINS, default 4, plus 17), fast-forward
     on/off, and any fault seed — the PR 2 determinism contract extended
     to fault injection.

   - The compiled execution mode (Congest.Compiled) is observationally
     equal to the fiber engine: verdict, stats fingerprint and telemetry
     JSON agree for every mode x fast-forward combination.

   Plus a fuzz of the Bits framing path: fragment/reassemble round-trips,
   frames always fit the bandwidth, and any lossy or spliced frame set
   reassembles to None (detectable silence), never to a wrong payload.

   Reproducibility: the qcheck random state comes from QCHECK_SEED when
   set (CI pins it); failures print shrunk counterexamples. *)

open Graphlib
module PT = Tester.Planarity_tester
module S = Partition.State

let max_domains =
  match Sys.getenv_opt "PROP_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some d when d >= 1 -> d | _ -> 4)
  | None -> 4

(* The domain counts the invariance properties sweep: 1..max_domains plus
   an oversubscribed 17, more domains than many live sets on these small
   graphs, so shards get one-node slices and some domains sit out. *)
let domain_sweep =
  List.init max_domains (fun d -> d + 1)
  @ if max_domains < 17 then [ 17 ] else []

(* --- generators ----------------------------------------------------- *)

(* A graph family keyed by small ints so qcheck can shrink the choice. *)
let graph_of ~family ~n ~seed =
  let rng = Random.State.make [| seed; 977 |] in
  match family mod 4 with
  | 0 -> Generators.apollonian rng (max 4 n)
  | 1 ->
      let side = max 2 (int_of_float (sqrt (float_of_int (max 4 n)))) in
      Generators.grid side side
  | 2 -> Generators.random_planar rng ~n:(max 4 n) ~m:(2 * n)
  | _ -> Generators.gnp rng (max 4 n) (3.0 /. float_of_int (max 4 n))

let planar_graph_of ~family ~n ~seed =
  (* families 0..2 are planar by construction *)
  graph_of ~family:(family mod 3) ~n ~seed

let family_name f =
  match f mod 4 with
  | 0 -> "apollonian"
  | 1 -> "grid"
  | 2 -> "random_planar"
  | _ -> "gnp"

(* A fault policy from three small shrinkable ints: a seed, an intensity
   knob (0 = none) and a crash selector. *)
let policy_of ~fseed ~intensity ~crash ~n =
  if intensity = 0 then None
  else
    let p = float_of_int (intensity mod 8) /. 40.0 in
    let crashes =
      if crash mod 3 = 0 then []
      else
        [
          (let from_round = 2 + (crash mod 5) in
           {
             Congest.Faults.node = crash mod max 1 n;
             from_round;
             until_round =
               (if crash mod 2 = 0 then max_int
                else from_round + 1 + (crash mod 9));
           });
        ]
    in
    Some
      (Congest.Faults.make ~seed:fseed ~drop:p ~duplicate:(p /. 2.0)
         ~delay:(p /. 2.0) ~max_delay:3 ~truncate:(p /. 4.0) ~crashes ())

(* --- 1. Stage I differential vs the centralized reference ----------- *)

let prop_stage1_matches_reference =
  QCheck.Test.make
    ~name:"Stage I on the simulator == centralized reference (+ invariants)"
    ~count:25
    QCheck.(triple (int_range 0 3) (int_range 8 80) (int_range 0 10000))
    (fun (family, n, seed) ->
      let g = graph_of ~family ~n ~seed in
      let eps = 0.25 +. float_of_int (seed mod 4) /. 10.0 in
      let d = Partition.Stage1.run g ~eps in
      S.check_invariants d.Partition.Stage1.state;
      let r = Partition.Reference.run g ~eps in
      let dist_part =
        Array.map (fun nd -> nd.S.part_root) d.Partition.Stage1.state.S.nodes
      in
      let dist_cuts =
        List.map
          (fun p -> p.Partition.Stage1.cut_after)
          d.Partition.Stage1.phases
      in
      if
        dist_part = r.Partition.Reference.part
        && dist_cuts = r.Partition.Reference.cuts
        && (d.Partition.Stage1.rejected <> []) = r.Partition.Reference.rejected
      then true
      else
        QCheck.Test.fail_reportf
          "divergence on %s n=%d seed=%d eps=%.2f" (family_name family) n seed
          eps)

(* --- 2. one-sided error, faults off and on --------------------------- *)

let prop_planar_never_rejects =
  QCheck.Test.make
    ~name:"planar input never rejects (faults off or on)" ~count:25
    QCheck.(
      pair
        (triple (int_range 0 2) (int_range 8 80) (int_range 0 10000))
        (triple (int_range 0 1000) (int_range 0 7) (int_range 0 20)))
    (fun ((family, n, seed), (fseed, intensity, crash)) ->
      let g = planar_graph_of ~family ~n ~seed in
      let faults = policy_of ~fseed ~intensity ~crash ~n:(Graph.n g) in
      let r = PT.run ?faults g ~eps:0.3 ~seed in
      match r.PT.verdict with
      | PT.Accept | PT.Degraded _ -> true
      | PT.Reject l ->
          QCheck.Test.fail_reportf
            "planar %s n=%d seed=%d faults=%s rejected at %d node(s)"
            (family_name family) n seed
            (match faults with
            | Some p -> Congest.Faults.to_spec p
            | None -> "off")
            (List.length l))

(* --- 3. stats accounting is domain/ff/fault-seed invariant ----------- *)

(* Everything except [fast_forwarded_rounds] (0 by construction with the
   optimisation off) must be identical. *)
let fingerprint (r : PT.report) =
  ( (match r.PT.verdict with
    | PT.Accept -> "accept"
    | PT.Reject l -> Printf.sprintf "reject:%d" (List.length l)
    | PT.Degraded m -> "degraded:" ^ m),
    (r.PT.rounds, r.PT.nominal_rounds, r.PT.messages, r.PT.total_bits),
    (r.PT.dropped, r.PT.duplicated, r.PT.delayed, r.PT.crashed_nodes) )

let prop_stats_invariance =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "report invariant across domains 1..%d x ff on/off x fault seeds, \
          and at 17 domains"
         max_domains)
    ~count:8
    QCheck.(
      pair
        (triple (int_range 0 3) (int_range 8 48) (int_range 0 10000))
        (triple (int_range 0 1000) (int_range 0 7) (int_range 0 20)))
    (fun ((family, n, seed), (fseed, intensity, crash)) ->
      let g = graph_of ~family ~n ~seed in
      let faults = policy_of ~fseed ~intensity ~crash ~n:(Graph.n g) in
      let base =
        fingerprint (PT.run ?faults ~domains:1 ~fast_forward:true g ~eps:0.3 ~seed)
      in
      List.for_all
        (fun domains ->
          List.for_all
            (fun fast_forward ->
              let fp =
                fingerprint
                  (PT.run ?faults ~domains ~fast_forward g ~eps:0.3 ~seed)
              in
              if fp = base then true
              else
                QCheck.Test.fail_reportf
                  "report differs: %s n=%d seed=%d faults=%s domains=%d \
                   ff=%b"
                  (family_name family) n seed
                  (match faults with
                  | Some p -> Congest.Faults.to_spec p
                  | None -> "off")
                  domains fast_forward)
            [ true; false ])
        domain_sweep)

(* --- 3b. compiled hot path == fiber engine --------------------------- *)

(* The execution mode must be invisible in every observable: verdict,
   full stats fingerprint INCLUDING fast_forwarded_rounds (both engines
   make the same fast-forward decisions), and the per-round telemetry
   JSON.  Run on planar and far inputs so both accepting and rejecting
   Stage I paths cross the compiled primitives. *)
let prop_compiled_matches_fiber =
  QCheck.Test.make
    ~name:"compiled mode == fiber mode (verdict + stats + telemetry JSON)"
    ~count:12
    QCheck.(
      triple (int_range 0 3) (int_range 8 60) (int_range 0 10000))
    (fun (family, n, seed) ->
      let g = graph_of ~family ~n ~seed in
      let eps = 0.25 +. float_of_int (seed mod 4) /. 10.0 in
      let observe mode fast_forward =
        let telemetry = Congest.Telemetry.create () in
        let r =
          PT.run ~telemetry ~domains:1 ~fast_forward ~mode g ~eps ~seed
        in
        ( fingerprint r,
          r.PT.fast_forwarded_rounds,
          Congest.Telemetry.Json.to_string (Congest.Telemetry.to_json telemetry)
        )
      in
      List.for_all
        (fun fast_forward ->
          if
            observe Congest.Compiled.Compiled fast_forward
            = observe Congest.Compiled.Fiber fast_forward
          then true
          else
            QCheck.Test.fail_reportf
              "mode compiled diverges from fiber: %s n=%d seed=%d eps=%.2f \
               ff=%b"
              (family_name family) n seed eps fast_forward)
        [ true; false ])

(* --- 4. fuzz the framing / fragmentation path ------------------------ *)

let payload_gen =
  (* sizes from empty up to several thousand bytes, pseudo-random content
     derived from a shrinkable (len, seed) pair *)
  QCheck.map
    (fun (len, seed) ->
      String.init len (fun i -> Char.chr ((seed + (i * 131)) land 0xff)))
    QCheck.(pair (int_range 0 4096) (int_range 0 1000))

let bandwidth_gen = QCheck.int_range (Congest.Bits.header_bits + 8) 512

let prop_fragment_roundtrip =
  QCheck.Test.make ~name:"fragment/reassemble round-trips; frames fit B"
    ~count:200
    QCheck.(pair payload_gen bandwidth_gen)
    (fun (s, bandwidth) ->
      let frames = Congest.Bits.fragment ~bandwidth s in
      List.iter
        (fun f ->
          if Congest.Bits.frame_bits f > bandwidth then
            QCheck.Test.fail_reportf "frame_bits %d > bandwidth %d (len %d)"
              (Congest.Bits.frame_bits f) bandwidth (String.length s))
        frames;
      (* order independence: reassembly accepts any permutation *)
      let shuffled =
        List.sort
          (fun a b ->
            compare
              (a.Congest.Bits.seq * 7919 mod 131)
              (b.Congest.Bits.seq * 7919 mod 131))
          frames
      in
      match Congest.Bits.reassemble shuffled with
      | Some s' when s' = s -> true
      | Some _ -> QCheck.Test.fail_report "reassembled to a different payload"
      | None -> QCheck.Test.fail_report "reassemble refused its own frames")

let prop_fragment_loss_detected =
  QCheck.Test.make
    ~name:"missing or duplicated frame => None, never silent corruption"
    ~count:200
    QCheck.(triple payload_gen bandwidth_gen (int_range 0 100000))
    (fun (s, bandwidth, pick) ->
      let frames = Congest.Bits.fragment ~bandwidth s in
      let k = List.length frames in
      let drop_i = pick mod k in
      let lossy = List.filteri (fun i _ -> i <> drop_i) frames in
      (match Congest.Bits.reassemble lossy with
      | Some s' when k = 1 && s' = "" && s = "" ->
          (* dropping the only frame of "" leaves [] -> None anyway *)
          QCheck.Test.fail_report "empty frame set reassembled"
      | Some _ -> QCheck.Test.fail_report "lossy frame set reassembled"
      | None -> ());
      let dup =
        match frames with f :: _ -> f :: frames | [] -> assert false
      in
      match Congest.Bits.reassemble dup with
      | Some _ -> QCheck.Test.fail_report "duplicated frame set reassembled"
      | None -> true)

let prop_fragment_splice_detected =
  QCheck.Test.make
    ~name:"frames spliced from two payloads never reassemble silently"
    ~count:100
    QCheck.(triple payload_gen payload_gen bandwidth_gen)
    (fun (a, b, bandwidth) ->
      let fa = Congest.Bits.fragment ~bandwidth a in
      let fb = Congest.Bits.fragment ~bandwidth b in
      (* steal frame 0 of [b] into [a]'s set (replacing a's frame 0): the
         result must either be rejected or decode to a's bytes with b's
         first chunk — which equals neither original unless the chunks
         coincide, in which case it IS a valid fragmentation. *)
      match (fa, fb) with
      | f0a :: rest, f0b :: _ when f0a.Congest.Bits.total = f0b.Congest.Bits.total
        -> (
          let spliced = f0b :: rest in
          match Congest.Bits.reassemble spliced with
          | None -> true
          | Some s ->
              (* only legitimate if the splice reconstructs a byte string
                 consistent with the frame set it was handed *)
              let expected =
                String.concat ""
                  (List.map
                     (fun f -> f.Congest.Bits.payload)
                     (List.sort
                        (fun x y ->
                          compare x.Congest.Bits.seq y.Congest.Bits.seq)
                        spliced))
              in
              s = expected
              || QCheck.Test.fail_report "splice decoded to unrelated bytes")
      | _ -> true)

(* --- 5. Faults.draw purity / spec round-trip -------------------------- *)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"Faults spec parse/render round-trips" ~count:100
    QCheck.(triple (int_range 0 1000) (int_range 0 7) (int_range 0 20))
    (fun (fseed, intensity, crash) ->
      match policy_of ~fseed ~intensity ~crash ~n:50 with
      | None -> true
      | Some p -> (
          let spec = Congest.Faults.to_spec p in
          match Congest.Faults.of_spec spec with
          | Ok p' ->
              Congest.Faults.to_spec p' = spec
              || QCheck.Test.fail_reportf "unstable spec %s" spec
          | Error e ->
              QCheck.Test.fail_reportf "own spec %s rejected: %s" spec e))

(* --- graph construction: dedup semantics and streaming equality ------ *)

(* [of_edges_dedup], [Builder.finish_dedup] and a list-level reference
   filter must agree exactly — same edges, same edge-id order — which
   [fingerprint] checks in one comparison. *)
let prop_of_edges_dedup =
  QCheck.Test.make
    ~name:"of_edges_dedup == filtered make == Builder.finish_dedup"
    ~count:300
    QCheck.(
      pair (int_range 1 24)
        (small_list (pair (int_range 0 23) (int_range 0 23))))
    (fun (n, edges) ->
      let edges = List.filter (fun (u, v) -> u < n && v < n) edges in
      let reference =
        let seen = Hashtbl.create 16 in
        List.filter
          (fun (u, v) ->
            u <> v
            &&
            let k = (min u v, max u v) in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          edges
      in
      let a = Graph.of_edges_dedup ~n edges in
      let b = Graph.make ~n reference in
      let c =
        let bld = Graph.Builder.create ~n () in
        List.iter (fun (u, v) -> Graph.Builder.add bld u v) edges;
        Graph.Builder.finish_dedup bld
      in
      (Graph.fingerprint a = Graph.fingerprint b
      && Graph.fingerprint a = Graph.fingerprint c
      && Graph.m a = List.length reference)
      || QCheck.Test.fail_reportf "dedup mismatch: n=%d, %d raw edges" n
           (List.length edges))

(* The streaming paths (generators building through [Graph.Builder], and
   the line-by-line Gio reader) must produce bit-for-bit the same
   structure as materializing the edge list and calling [make]. *)
let prop_streaming_vs_materialized =
  QCheck.Test.make
    ~name:"streamed construction fingerprints == materialized make"
    ~count:60
    QCheck.(triple (int_range 0 3) (int_range 8 120) (int_range 0 10000))
    (fun (family, n, seed) ->
      let g = graph_of ~family ~n ~seed in
      let edges =
        List.rev (Graph.fold_edges (fun acc _ u v -> (u, v) :: acc) [] g)
      in
      let materialized = Graph.make ~n:(Graph.n g) edges in
      let round_tripped = Gio.of_string (Gio.to_string g) in
      (Graph.fingerprint g = Graph.fingerprint materialized
      && Graph.fingerprint g = Graph.fingerprint round_tripped)
      || QCheck.Test.fail_reportf "fingerprint divergence on %s n=%d seed=%d"
           (family_name family) n seed)

(* --- 6. the property portfolio on the shared harness ----------------- *)

module H = Tester.Harness

let verdict_tag = function
  | H.Accept -> "accept"
  | H.Reject l -> Printf.sprintf "reject:%d" (List.length l)
  | H.Degraded m -> "degraded:" ^ m

(* Same contract as [fingerprint] above, on Harness totals: everything
   except [fast_forwarded_rounds] must be a pure function of the input. *)
let totals_fingerprint (t : H.totals) =
  ( verdict_tag t.H.verdict,
    (t.H.rounds, t.H.nominal_rounds, t.H.messages, t.H.total_bits),
    (t.H.dropped, t.H.duplicated, t.H.delayed, t.H.crashed_nodes) )

(* Differential one-sided contract vs lib/partition/reference.ml: a
   holding input is never rejected, and any rejection is backed by the
   centralized reference agreeing the property fails.  (Accepting a
   violating-but-close input is allowed — that is what eps-far means.) *)
let prop_bipartite_matches_reference =
  QCheck.Test.make
    ~name:"bipartiteness tester vs centralized reference (one-sided)"
    ~count:30
    QCheck.(triple (int_range 0 3) (int_range 8 64) (int_range 0 10000))
    (fun (family, n, seed) ->
      let g = graph_of ~family ~n ~seed in
      let _, t = Tester.Bipartite_tester.run ~seed g ~eps:0.3 in
      match t.H.verdict with
      | H.Accept -> true
      | H.Degraded m ->
          QCheck.Test.fail_reportf "degraded without faults: %s" m
      | H.Reject _ when not (Partition.Reference.is_bipartite g) -> true
      | H.Reject l ->
          QCheck.Test.fail_reportf
            "rejected a bipartite %s n=%d seed=%d at %d node(s)"
            (family_name family) n seed (List.length l))

let prop_cycle_free_matches_reference =
  QCheck.Test.make
    ~name:"cycle-freeness tester vs centralized reference (one-sided)"
    ~count:30
    QCheck.(triple (int_range 0 3) (int_range 8 64) (int_range 0 10000))
    (fun (family, n, seed) ->
      let g = graph_of ~family ~n ~seed in
      let _, t = Tester.Cycle_free_tester.run ~seed g ~eps:0.3 in
      match t.H.verdict with
      | H.Accept -> true
      | H.Degraded m ->
          QCheck.Test.fail_reportf "degraded without faults: %s" m
      | H.Reject _ when not (Partition.Reference.is_cycle_free g) -> true
      | H.Reject l ->
          QCheck.Test.fail_reportf
            "rejected a forest %s n=%d seed=%d at %d node(s)"
            (family_name family) n seed (List.length l))

let prop_bipartite_holding_never_rejects =
  QCheck.Test.make
    ~name:"bipartite input never rejects (faults off or on)" ~count:25
    QCheck.(
      pair
        (pair (int_range 8 80) (int_range 0 10000))
        (triple (int_range 0 1000) (int_range 0 7) (int_range 0 20)))
    (fun ((n, seed), (fseed, intensity, crash)) ->
      let rng = Random.State.make [| seed; 1289 |] in
      let g = Generators.bipartite_perturbed rng (max 4 n) in
      let faults = policy_of ~fseed ~intensity ~crash ~n:(Graph.n g) in
      let _, t = Tester.Bipartite_tester.run ?faults ~seed g ~eps:0.3 in
      match t.H.verdict with
      | H.Accept | H.Degraded _ -> true
      | H.Reject l ->
          QCheck.Test.fail_reportf
            "bipartite n=%d seed=%d faults=%s rejected at %d node(s)" n seed
            (match faults with
            | Some p -> Congest.Faults.to_spec p
            | None -> "off")
            (List.length l))

let prop_cycle_free_holding_never_rejects =
  QCheck.Test.make
    ~name:"forest input never rejects (faults off or on)" ~count:25
    QCheck.(
      pair
        (pair (int_range 8 80) (int_range 0 10000))
        (triple (int_range 0 1000) (int_range 0 7) (int_range 0 20)))
    (fun ((n, seed), (fseed, intensity, crash)) ->
      let rng = Random.State.make [| seed; 2477 |] in
      let g = Generators.forest_close rng (max 2 n) in
      let faults = policy_of ~fseed ~intensity ~crash ~n:(Graph.n g) in
      let _, t = Tester.Cycle_free_tester.run ?faults ~seed g ~eps:0.3 in
      match t.H.verdict with
      | H.Accept | H.Degraded _ -> true
      | H.Reject l ->
          QCheck.Test.fail_reportf
            "forest n=%d seed=%d faults=%s rejected at %d node(s)" n seed
            (match faults with
            | Some p -> Congest.Faults.to_spec p
            | None -> "off")
            (List.length l))

(* Certified-far soundness, faults off.  Both instances plant more
   violations than eps*m/2 — the most edges Stage I's cut can remove —
   so an intact odd cycle / cyclic part survives in some part and the
   rejection is deterministic, not statistical.  The generators' own
   soundness is checked against the references on the way. *)
let prop_far_instances_reject =
  QCheck.Test.make
    ~name:"certified-far instances reject deterministically (faults off)"
    ~count:20
    QCheck.(pair (int_range 9 120) (int_range 0 10000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed; 3671 |] in
      let side = max 3 (int_of_float (sqrt (float_of_int n))) in
      let per_axis = ((side - 2) / 2) + 1 in
      let odd = Generators.odd_cycle_planted rng ~n ~k:(per_axis * per_axis) in
      let k = max 1 (n / 2) in
      let chorded = Generators.forest_plus_edges rng ~n ~k in
      if Partition.Reference.is_bipartite odd then
        QCheck.Test.fail_reportf "odd_cycle_planted n=%d is bipartite" n
      else if Partition.Reference.excess_edges chorded <> k then
        QCheck.Test.fail_reportf "forest_plus_edges n=%d k=%d: excess %d" n k
          (Partition.Reference.excess_edges chorded)
      else
        let _, tb = Tester.Bipartite_tester.run ~seed odd ~eps:0.1 in
        let _, tc = Tester.Cycle_free_tester.run ~seed chorded ~eps:0.1 in
        match (tb.H.verdict, tc.H.verdict) with
        | H.Reject _, H.Reject _ -> true
        | vb, vc ->
            QCheck.Test.fail_reportf
              "far instance accepted: n=%d seed=%d bipartite=%s cycle-free=%s"
              n seed (verdict_tag vb) (verdict_tag vc))

let prop_portfolio_invariance =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "bipartite/cycle-free totals invariant across domains 1..%d x ff \
          x mode, and at 17 domains"
         max_domains)
    ~count:6
    QCheck.(triple (int_range 0 3) (int_range 8 40) (int_range 0 10000))
    (fun (family, n, seed) ->
      let g = graph_of ~family ~n ~seed in
      let runs =
        [
          ( "bipartite",
            fun ~domains ~fast_forward ~mode ->
              snd
                (Tester.Bipartite_tester.run ~seed ~domains ~fast_forward
                   ~mode g ~eps:0.3) );
          ( "cycle-free",
            fun ~domains ~fast_forward ~mode ->
              snd
                (Tester.Cycle_free_tester.run ~seed ~domains ~fast_forward
                   ~mode g ~eps:0.3) );
          ( "bipartite (Exponential_shifts)",
            fun ~domains ~fast_forward ~mode ->
              snd
                (Tester.Bipartite_tester.run
                   ~partition:Tester.Harness.Exponential_shifts ~seed ~domains
                   ~fast_forward ~mode g ~eps:0.3) );
          ( "cycle-free (Randomized 0.1)",
            fun ~domains ~fast_forward ~mode ->
              snd
                (Tester.Cycle_free_tester.run
                   ~partition:(Tester.Harness.Randomized 0.1) ~seed ~domains
                   ~fast_forward ~mode g ~eps:0.3) );
        ]
      in
      List.for_all
        (fun (prop, run) ->
          let base =
            totals_fingerprint
              (run ~domains:1 ~fast_forward:true ~mode:Congest.Compiled.Fiber)
          in
          List.for_all
            (fun domains ->
              List.for_all
                (fun fast_forward ->
                  List.for_all
                    (fun mode ->
                      let fp =
                        totals_fingerprint (run ~domains ~fast_forward ~mode)
                      in
                      if fp = base then true
                      else
                        QCheck.Test.fail_reportf
                          "%s totals differ: %s n=%d seed=%d domains=%d \
                           ff=%b mode=%s"
                          prop (family_name family) n seed domains
                          fast_forward
                          (Congest.Compiled.mode_to_string mode))
                    [ Congest.Compiled.Fiber; Congest.Compiled.Compiled ])
                [ true; false ])
            domain_sweep)
        runs)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "prop"
    [
      ( "graphlib",
        [
          to_alcotest prop_of_edges_dedup;
          to_alcotest prop_streaming_vs_materialized;
        ] );
      ( "partition",
        [ to_alcotest prop_stage1_matches_reference ] );
      ( "bits-fuzz",
        [
          to_alcotest prop_fragment_roundtrip;
          to_alcotest prop_fragment_loss_detected;
          to_alcotest prop_fragment_splice_detected;
        ] );
      ("faults", [ to_alcotest prop_spec_roundtrip ]);
      ( "portfolio",
        [
          to_alcotest prop_bipartite_matches_reference;
          to_alcotest prop_cycle_free_matches_reference;
          to_alcotest prop_bipartite_holding_never_rejects;
          to_alcotest prop_cycle_free_holding_never_rejects;
          to_alcotest prop_far_instances_reject;
          to_alcotest prop_portfolio_invariance;
        ] );
      ( "tester",
        [
          to_alcotest prop_planar_never_rejects;
          to_alcotest prop_stats_invariance;
          to_alcotest prop_compiled_matches_fiber;
        ] );
    ]
