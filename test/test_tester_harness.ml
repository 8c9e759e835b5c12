(* Unit tests for the shared tester harness (lib/tester/harness.ml):
   verdict plumbing driven by synthetic Stage II callbacks, Degraded
   propagation under fault injection, checkpoint parameter validation,
   the run's engine settings reaching every partition mode, and the
   eps-rescaling clamp boundary cases. *)

open Graphlib
module H = Tester.Harness
module S = Partition.State

let check = Alcotest.check
let cb = Alcotest.bool
let cf = Alcotest.float 1e-12
let q = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* effective_eps clamp                                                  *)
(* ------------------------------------------------------------------ *)

let test_effective_eps_edge_budget () =
  let g = Generators.grid 6 6 in
  let n = float_of_int (Graph.n g) and m = float_of_int (Graph.m g) in
  check cf "midrange: eps * m / n" (0.3 *. m /. n) (H.effective_eps g ~eps:0.3);
  check cf "tiny eps floors at 1/n" (1.0 /. n) (H.effective_eps g ~eps:1e-9);
  check cf "huge eps caps at 0.999" 0.999 (H.effective_eps g ~eps:10.0)

let test_effective_eps_degenerate () =
  (* empty graph: eps is returned unchanged, no division by n *)
  check cf "n = 0 passes eps through" 0.42
    (H.effective_eps (Graph.make ~n:0 []) ~eps:0.42);
  (* edgeless graph with vertices: raw = 0, floored at 1/n *)
  check cf "m = 0 floors at 1/n" 0.25
    (H.effective_eps (Graph.make ~n:4 []) ~eps:0.3);
  (* single node: 1/n = 1.0 > 0.999, so the cap wins over the floor *)
  check cf "n = 1 cap beats floor" 0.999
    (H.effective_eps (Graph.make ~n:1 []) ~eps:0.3)

(* The documented invariant, fuzzed: eps' * n >= 1 and eps' <= 0.999. *)
let prop_effective_eps_invariant =
  QCheck.Test.make ~name:"effective_eps: eps' * n >= 1, eps' <= 0.999"
    ~count:200
    QCheck.(
      triple (int_range 0 3) (int_range 1 80)
        (pair (int_range 0 10000) (int_range 0 40)))
    (fun (family, n, (seed, e)) ->
      let rng = Random.State.make [| seed; 977 |] in
      let g =
        match family mod 4 with
        | 0 -> Generators.apollonian rng (max 4 n)
        | 1 ->
            let side = max 2 (int_of_float (sqrt (float_of_int (max 4 n)))) in
            Generators.grid side side
        | 2 -> Generators.random_tree rng (max 2 n)
        | _ -> Graph.make ~n []
      in
      let eps = float_of_int e /. 20.0 in
      let eps' = H.effective_eps g ~eps in
      let n = Graph.n g in
      (* 1/n is not exactly representable, so the product can land an ulp
         below 1.0 — the documented invariant holds up to rounding.  At
         n = 1 the two clamps conflict (1/n = 1.0 is above the 0.999 cap)
         and the cap wins. *)
      n = 0
      || (eps' *. float_of_int n >= 1.0 -. 1e-9 && eps' <= 0.999)
      || eps' = 0.999
      || QCheck.Test.fail_reportf "clamp violated: n=%d eps=%.3f eps'=%f" n
           eps eps')

(* ------------------------------------------------------------------ *)
(* verdict plumbing with synthetic Stage II callbacks                   *)
(* ------------------------------------------------------------------ *)

let test_accept_surfaces_stage2_result () =
  let g = Generators.grid 5 5 in
  let r, t =
    H.run ~property:"unit" ~stage2:(fun _ ~eps:_ ~seed:_ -> 42) g ~eps:0.3
  in
  check (Alcotest.option Alcotest.int) "stage2 result surfaced" (Some 42) r;
  (match t.H.verdict with
  | H.Accept -> ()
  | _ -> Alcotest.fail "expected Accept on a quiet Stage II");
  check cb "Stage_one result present" true (t.H.stage1 <> None)

let test_reject_evidence_sorted_deduped () =
  let g = Generators.grid 5 5 in
  let stage2 st ~eps:_ ~seed:_ =
    st.S.rejections <- [ (7, "b"); (3, "a"); (7, "b") ]
  in
  let r, t = H.run ~property:"unit" ~stage2 g ~eps:0.3 in
  check cb "stage2 ran" true (r <> None);
  match t.H.verdict with
  | H.Reject l ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        "evidence sorted and deduplicated"
        [ (3, "a"); (7, "b") ]
        l
  | _ -> Alcotest.fail "expected Reject"

let test_degraded_exception_propagates () =
  (* Congest.Faults.Degraded escaping Stage II becomes the verdict even
     on a fault-free run (the escape hatch is unconditional). *)
  let g = Generators.grid 5 5 in
  let stage2 _ ~eps:_ ~seed:_ = raise (Congest.Faults.Degraded "gave up") in
  let r, t = H.run ~property:"unit" ~stage2 g ~eps:0.3 in
  check cb "no stage2 result" true (r = None);
  match t.H.verdict with
  | H.Degraded msg -> check Alcotest.string "message preserved" "gave up" msg
  | _ -> Alcotest.fail "expected Degraded"

let test_rejection_under_fired_faults_degrades () =
  (* Synthetic rejection evidence while a drop policy demonstrably fired
     must never surface as Reject — one-sided error by construction. *)
  let g = Generators.grid 8 8 in
  let faults =
    Congest.Faults.make ~seed:11 ~drop:0.4 ~duplicate:0.0 ~delay:0.0
      ~max_delay:1 ~truncate:0.0 ~crashes:[] ()
  in
  let stage2 st ~eps:_ ~seed:_ =
    st.S.rejections <- (0, "synthetic") :: st.S.rejections
  in
  let _, t = H.run ~faults ~property:"unit" ~stage2 g ~eps:0.3 in
  check cb "faults actually fired" true (t.H.dropped > 0);
  match t.H.verdict with
  | H.Degraded _ -> ()
  | H.Accept -> Alcotest.fail "synthetic evidence vanished"
  | H.Reject _ -> Alcotest.fail "rejection trusted while faults fired"

let test_plain_exception_without_faults_escapes () =
  (* Without a fault policy there is nothing to blame: an unexpected
     Stage II exception propagates to the caller instead of being
     laundered into Degraded. *)
  let g = Generators.grid 4 4 in
  let stage2 _ ~eps:_ ~seed:_ = failwith "stage2 bug" in
  Alcotest.check_raises "escapes" (Failure "stage2 bug") (fun () ->
      ignore (H.run ~property:"unit" ~stage2 g ~eps:0.3))

(* ------------------------------------------------------------------ *)
(* checkpoint parameter validation                                      *)
(* ------------------------------------------------------------------ *)

let dummy_checkpoint every =
  { H.every; save = (fun _ -> ()); load = (fun () -> None) }

let noop_stage2 _ ~eps:_ ~seed:_ = ()

let test_checkpoint_every_validated () =
  let g = Generators.grid 4 4 in
  Alcotest.check_raises "every = 0 rejected"
    (Invalid_argument
       "Tester.Harness.run (unit): checkpoint.every must be >= 1") (fun () ->
      ignore
        (H.run
           ~checkpoint:(dummy_checkpoint 0)
           ~property:"unit" ~stage2:noop_stage2 g ~eps:0.3))

let test_checkpoint_requires_stage_one () =
  let g = Generators.grid 4 4 in
  List.iter
    (fun (partition, msg) ->
      Alcotest.check_raises
        (msg ^ " rejected")
        (Invalid_argument
           ("Tester.Harness.run (unit): checkpointing requires the Stage_one \
             partition (" ^ msg ^ ")")) (fun () ->
          ignore
            (H.run ~partition ~checkpoint:(dummy_checkpoint 1)
               ~property:"unit" ~stage2:noop_stage2 g ~eps:0.3)))
    [
      ( H.Exponential_shifts,
        "Exponential_shifts clusters centrally, with no phase boundaries to \
         checkpoint at" );
      ( H.Randomized 0.1,
        "Randomized offers no phase boundaries to checkpoint at" );
    ]

let test_exponential_shifts_has_no_stage1 () =
  let g = Generators.grid 5 5 in
  let r, t =
    H.run ~partition:H.Exponential_shifts ~property:"unit"
      ~stage2:(fun _ ~eps:_ ~seed:_ -> "ok")
      g ~eps:0.3
  in
  check (Alcotest.option Alcotest.string) "stage2 still runs" (Some "ok") r;
  check cb "no Stage I result" true (t.H.stage1 = None)

(* ------------------------------------------------------------------ *)
(* every partition mode runs with the run's engine settings             *)
(* ------------------------------------------------------------------ *)

(* The telemetry recorder must see every round the run simulates: the
   partition's as well as Stage II's, whichever partition produced it. *)
let test_telemetry_covers_partition () =
  let g = Generators.grid 12 12 in
  List.iter
    (fun (name, partition) ->
      let telemetry = Congest.Telemetry.create () in
      let _, t =
        H.run ~partition ~telemetry ~property:"unit"
          ~stage2:(fun st ~eps:_ ~seed:_ -> ignore (Tester.Part_bfs.build st))
          g ~eps:0.3
      in
      let phases = Congest.Telemetry.phases telemetry in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
      check Alcotest.int (name ^ ": phase rounds = totals.rounds") t.H.rounds
        (sum (fun p -> p.Congest.Telemetry.rounds));
      check Alcotest.int
        (name ^ ": phase messages = totals.messages")
        t.H.messages
        (sum (fun p -> p.Congest.Telemetry.messages)))
    [
      ("Stage_one", H.Stage_one);
      ("Exponential_shifts", H.Exponential_shifts);
      ("Randomized 0.1", H.Randomized 0.1);
    ]

(* Faults reach the non-Stage-I partitions too, and whatever they break
   there degrades the run: a planar input accepts or degrades, and the
   harness never lets a protocol failure escape. *)
let test_faulty_partition_degrades () =
  let g = Generators.grid 12 12 in
  let faults =
    match Congest.Faults.of_spec "drop=0.05,seed=3" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, partition) ->
      let _, t =
        Tester.Cycle_free_tester.run ~partition ~faults
          (Generators.random_tree (Random.State.make [| 5 |]) 144)
          ~eps:0.3
      in
      (match t.H.verdict with
      | H.Accept | H.Degraded _ -> ()
      | H.Reject _ -> Alcotest.fail (name ^ ": forest rejected under faults"));
      let _, t = Tester.Bipartite_tester.run ~partition ~faults g ~eps:0.3 in
      check cb (name ^ ": faults fired") true (t.H.dropped > 0);
      match t.H.verdict with
      | H.Accept | H.Degraded _ -> ()
      | H.Reject _ -> Alcotest.fail (name ^ ": grid rejected under faults"))
    [
      ("Exponential_shifts", H.Exponential_shifts);
      ("Randomized 0.1", H.Randomized 0.1);
    ]

(* ------------------------------------------------------------------ *)
(* one run, many projections                                            *)
(* ------------------------------------------------------------------ *)

(* Every surface that reports a run's totals projects the same count:
   the harness totals, the partition state's Stats, the telemetry
   phases, the trace's exact totals and phases, the run-level
   [congest_*] counters and the heartbeat.  One harness run per leg with
   every observer attached and a freshly reset metrics registry. *)
let test_projections_agree () =
  let module M = Obs.Metrics in
  let module St = Congest.Stats in
  let module Tel = Congest.Telemetry in
  let module Tr = Congest.Trace in
  let counter ?(labels = []) name =
    match List.find_opt (fun f -> f.M.name = name) (M.snapshot ()) with
    | None -> Alcotest.failf "metric %s not registered" name
    | Some f -> (
        match List.find_opt (fun s -> s.M.labels = labels) f.M.series with
        | Some { M.value = M.Counter_v v; _ } -> v
        | _ -> 0)
  in
  let grid = Generators.grid 16 16 in
  let far =
    Generators.far_from_planar (Random.State.make [| 7 |]) ~n:256 ~eps:0.25
  in
  let leg (name, g, partition, fast_forward, faults) =
    let ci what = Alcotest.check Alcotest.int (name ^ ": " ^ what) in
    Fun.protect
      ~finally:(fun () -> M.set_enabled false)
      (fun () ->
        M.set_enabled true;
        M.reset ();
        let telemetry = Tel.create () in
        let trace = Tr.create telemetry in
        let heartbeat =
          Obs.Heartbeat.create ~run_id:name ~fingerprint:"projections"
            ~property:"planarity" ()
        in
        let partition_state = ref None in
        let _, t =
          H.run ~telemetry ~trace ~heartbeat ~partition ~fast_forward
            ?faults ~property:"planarity"
            ~stage2:(fun st ~eps ~seed ->
              partition_state := Some st;
              Tester.Stage2.run st ~eps ~seed)
            g ~eps:0.3
        in
        let s =
          match (t.H.stage1, !partition_state) with
          | Some r, _ -> r.Partition.Stage1.state.S.stats
          | None, Some st -> st.S.stats
          | None, None -> Alcotest.fail "no partition state to read"
        in
        let tel = Tel.phases telemetry in
        let sum f = List.fold_left (fun acc p -> acc + f p) 0 tel in
        let tt = Tr.totals trace and tp = Tr.sim_phases trace in
        let tsum f = List.fold_left (fun acc p -> acc + f p) 0 tp in
        let hb = Obs.Heartbeat.current heartbeat in
        (* rounds *)
        ci "totals rounds = Stats" s.St.rounds t.H.rounds;
        ci "telemetry rounds" s.St.rounds (sum (fun p -> p.Tel.rounds));
        ci "trace rounds" s.St.rounds tt.Tr.rounds;
        ci "trace phase rounds" s.St.rounds
          (tsum (fun (p : Tr.sim_phase) -> p.Tr.rounds));
        ci "congest_rounds" s.St.rounds (counter "congest_rounds");
        ci "heartbeat rounds" s.St.rounds hb.Obs.Heartbeat.rounds;
        (* charged rounds, Stage II's oracle embedding charge included *)
        ci "telemetry frames" s.St.charged_rounds (sum (fun p -> p.Tel.frames));
        ci "trace frames" s.St.charged_rounds tt.Tr.frames;
        ci "trace phase frames" s.St.charged_rounds
          (tsum (fun (p : Tr.sim_phase) -> p.Tr.frames));
        ci "congest_charged_rounds" s.St.charged_rounds
          (counter "congest_charged_rounds");
        ci "heartbeat charged rounds" s.St.charged_rounds
          hb.Obs.Heartbeat.charged_rounds;
        (* messages *)
        ci "totals messages = Stats" s.St.messages t.H.messages;
        ci "telemetry messages" s.St.messages (sum (fun p -> p.Tel.messages));
        ci "trace messages" s.St.messages tt.Tr.messages;
        ci "trace phase messages" s.St.messages
          (tsum (fun (p : Tr.sim_phase) -> p.Tr.messages));
        ci "congest_messages" s.St.messages (counter "congest_messages");
        ci "heartbeat messages" s.St.messages hb.Obs.Heartbeat.messages;
        (* bits *)
        ci "totals bits = Stats" s.St.total_bits t.H.total_bits;
        ci "telemetry bits" s.St.total_bits (sum (fun p -> p.Tel.bits));
        ci "trace bits" s.St.total_bits tt.Tr.bits;
        ci "trace phase bits" s.St.total_bits
          (tsum (fun (p : Tr.sim_phase) -> p.Tr.bits));
        ci "congest_bits" s.St.total_bits (counter "congest_bits");
        ci "heartbeat bits" s.St.total_bits hb.Obs.Heartbeat.total_bits;
        (* fast-forwarded rounds *)
        let ff = s.St.fast_forwarded_rounds in
        ci "totals ff = Stats" ff t.H.fast_forwarded_rounds;
        ci "telemetry ff" ff (sum (fun p -> p.Tel.fast_forwarded));
        ci "trace ff" ff tt.Tr.fast_forwarded;
        ci "trace phase ff" ff
          (tsum (fun (p : Tr.sim_phase) -> p.Tr.fast_forwarded));
        ci "congest_fast_forwarded_rounds" ff
          (counter "congest_fast_forwarded_rounds");
        (* fault counters *)
        List.iter
          (fun (kind, stats, totals, telemetry, trace) ->
            ci (kind ^ " totals = Stats") stats totals;
            ci (kind ^ " telemetry") stats (sum telemetry);
            ci (kind ^ " trace") stats trace;
            ci ("congest_faults " ^ kind) stats
              (counter ~labels:[ ("kind", kind) ] "congest_faults"))
          [
            ("dropped", s.St.dropped, t.H.dropped, (fun p -> p.Tel.dropped),
             tt.Tr.dropped);
            ("duplicated", s.St.duplicated, t.H.duplicated,
             (fun p -> p.Tel.duplicated), tt.Tr.duplicated);
            ("delayed", s.St.delayed, t.H.delayed, (fun p -> p.Tel.delayed),
             tt.Tr.delayed);
          ];
        ci "crashed totals = Stats" s.St.crashed_nodes t.H.crashed_nodes;
        ci "crashed telemetry" s.St.crashed_nodes
          (sum (fun p -> p.Tel.crashed));
        ci "crashed trace" s.St.crashed_nodes tt.Tr.crashed;
        ci "congest_crashed_nodes" s.St.crashed_nodes
          (counter "congest_crashed_nodes");
        (* the leg exercised what it names *)
        Alcotest.check cb (name ^ ": ran rounds") true (s.St.rounds > 0);
        if not fast_forward then ci "no skip with fast-forward off" 0 ff
        else if faults = None then
          Alcotest.check cb (name ^ ": fast-forward skipped") true (ff > 0);
        if faults <> None then
          Alcotest.check cb (name ^ ": faults fired") true (s.St.dropped > 0))
  in
  let drop =
    match Congest.Faults.of_spec "drop=0.01,seed=7" with
    | Ok p -> Some p
    | Error e -> Alcotest.fail e
  in
  List.iter leg
    (List.concat_map
       (fun (gname, g) ->
         List.map
           (fun ff ->
             (Printf.sprintf "%s ff=%b" gname ff, g, H.Stage_one, ff, None))
           [ true; false ])
       [ ("grid", grid); ("far", far) ]
    @ [
        ("grid drop=0.01", grid, H.Stage_one, true, drop);
        ("grid Exponential_shifts", grid, H.Exponential_shifts, true, None);
        ("grid Randomized 0.1", grid, H.Randomized 0.1, true, None);
      ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "tester_harness"
    [
      ( "effective_eps",
        [
          Alcotest.test_case "edge budget" `Quick
            test_effective_eps_edge_budget;
          Alcotest.test_case "degenerate graphs" `Quick
            test_effective_eps_degenerate;
          q prop_effective_eps_invariant;
        ] );
      ( "verdict",
        [
          Alcotest.test_case "accept surfaces result" `Quick
            test_accept_surfaces_stage2_result;
          Alcotest.test_case "reject sorted+dedup" `Quick
            test_reject_evidence_sorted_deduped;
          Alcotest.test_case "Degraded exception" `Quick
            test_degraded_exception_propagates;
          Alcotest.test_case "faulty rejection degrades" `Quick
            test_rejection_under_fired_faults_degrades;
          Alcotest.test_case "plain exception escapes" `Quick
            test_plain_exception_without_faults_escapes;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "every >= 1" `Quick test_checkpoint_every_validated;
          Alcotest.test_case "Stage_one only" `Quick
            test_checkpoint_requires_stage_one;
          Alcotest.test_case "Exponential_shifts runs" `Quick
            test_exponential_shifts_has_no_stage1;
        ] );
      ( "partition",
        [
          Alcotest.test_case "telemetry covers the partition" `Quick
            test_telemetry_covers_partition;
          Alcotest.test_case "faulty partition degrades" `Quick
            test_faulty_partition_degrades;
        ] );
      ( "projections",
        [
          Alcotest.test_case "all projections agree on the totals" `Quick
            test_projections_agree;
        ] );
    ]
