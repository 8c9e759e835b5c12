open Graphlib

type verdict = Accept | Reject of (int * string) list | Degraded of string

(* Stable run-level metrics, shared by every property tester built on the
   harness.  Verdicts and stage durations are a pure function of
   (graph, seed, eps, faults) — wall clock never enters.  The family
   names predate the harness (they are pinned by MONITOR_baseline.json),
   so they keep the planartest_ prefix. *)
let m_verdicts =
  Obs.Metrics.counter ~label_names:[ "verdict" ]
    ~help:"Tester verdicts by outcome" "planartest_verdicts"

let m_stage2_rounds =
  Obs.Metrics.histogram
    ~help:"Simulated rounds spent in Stage II per tester run"
    ~buckets:(Obs.Metrics.exponential_buckets ~start:1 ~factor:2 ~count:20)
    "planartest_stage2_rounds"

type partition_mode = Stage_one | Exponential_shifts | Randomized of float

(* Everything Stage I needs to continue from a phase boundary.  Plain
   marshal-safe data only: [State.node] is ints/bools/lists/arrays, and
   {!Congest.Stats.t} is a flat record — no closures, no fibers (engine
   pools are quiescent at phase boundaries and are rebuilt on restore). *)
type snapshot = {
  ck_phase : int;  (** next phase to run (1-based) *)
  ck_phases_rev : Partition.Stage1.phase_trace list;
      (** phase traces so far, reverse-chronological *)
  ck_nodes : Partition.State.node array;
  ck_stats : Congest.Stats.t;
  ck_rejections : (int * string) list;
  ck_nominal_rounds : int;
  ck_telemetry : Congest.Telemetry.t option;
      (** per-round series recorded up to the snapshot, when the
          checkpointed run had a telemetry recorder attached *)
  ck_trace : Congest.Trace.t option;
      (** event-trace state recorded up to the snapshot, when the
          checkpointed run had a trace recorder attached *)
}

type checkpoint = {
  save : snapshot -> unit;
  load : unit -> snapshot option;
  every : int;
}

type totals = {
  verdict : verdict;
  stage1 : Partition.Stage1.result option;
  rounds : int;
  nominal_rounds : int;
  messages : int;
  total_bits : int;
  fast_forwarded_rounds : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  crashed_nodes : int;
}

(* Random_partition's target is [eps' * n] vertices' worth of cut edges,
   while every property on the harness counts its distance in edge edits
   out of [m] (the general sparse-graph model), so the [eps * m] budget
   rescales to [eps' = eps * m / n].  For a large sparse graph the ratio
   can land below [1 / n], at which point the target [eps' * n] rounds
   below one edge and the partition goal is vacuous; clamp so
   [eps' * n >= 1] always holds (and below the degenerate 1.0). *)
let effective_eps g ~eps =
  let n = Graph.n g in
  if n = 0 then eps
  else
    min 0.999
      (max
         (eps *. float_of_int (Graph.m g) /. float_of_int n)
         (1.0 /. float_of_int n))

let run ?(seed = 0) ?(alpha = 3) ?(partition = Stage_one)
    ?(measure_diameters = false) ?telemetry ?trace ?(domains = 1)
    ?(fast_forward = true) ?faults ?mode:(_ : Congest.Compiled.mode option)
    ?checkpoint ?heartbeat ~property ~stage2 g ~eps =
  let faults_active = Congest.Faults.active faults in
  (* A traced run ticks the telemetry its trace projects. *)
  let telemetry = Congest.Trace.resolve ~telemetry trace in
  (match (checkpoint, partition) with
  | Some ck, _ when ck.every < 1 ->
      invalid_arg
        (Printf.sprintf "Tester.Harness.run (%s): checkpoint.every must be \
                         >= 1" property)
  | Some _, Exponential_shifts ->
      invalid_arg
        (Printf.sprintf
           "Tester.Harness.run (%s): checkpointing requires the Stage_one \
            partition (Exponential_shifts clusters centrally, with no phase \
            boundaries to checkpoint at)"
           property)
  | Some _, Randomized _ ->
      invalid_arg
        (Printf.sprintf
           "Tester.Harness.run (%s): checkpointing requires the Stage_one \
            partition (Randomized offers no phase boundaries to checkpoint \
            at)"
           property)
  | _ -> ());
  (* Heartbeat plumbing — all host-side.  [hb_on_round] ticks from the
     engine's quiescent round boundaries; the sample closure reads the
     state's accumulated stats (primitive-run granularity) plus the
     phase counters below; phase boundaries force a publication. *)
  let hb_phases_done = ref 0 in
  let hb_phases_total =
    match partition with
    | Stage_one -> Partition.Stage1.phases_for ~eps ~alpha + 1
    | Exponential_shifts | Randomized _ -> 2 (* one partition run; Stage II *)
  in
  let hb_publish () = Option.iter Obs.Heartbeat.publish heartbeat in
  (* One state carries the whole run.  It pre-exists the partition so the
     [on_phase] closure can capture it for checkpoint snapshots, so the
     heartbeat can sample it, and so every partition's rounds run with
     this run's engine settings. *)
  let st, resume =
    match Option.bind checkpoint (fun ck -> ck.load ()) with
    | None -> (Partition.State.create g, None)
    | Some s ->
        (* Splice the pre-interruption per-round series into this run's
           recorder, so the final stats JSON is byte-identical to an
           uninterrupted run's.  A trace projects this telemetry, so this
           also restores its rounds, phases and aggregate totals. *)
        (match (s.ck_telemetry, telemetry) with
        | Some src, Some dst -> Congest.Telemetry.restore_into dst ~from:src
        | _ -> ());
        (* Same splice for the trace's own state (ring, labels, host
           profiles): the resumed run's .ctrace then reads as if never
           stopped (host-clock deltas restart — see
           {!Congest.Trace.restore_into}). *)
        (match (s.ck_trace, trace) with
        | Some src, Some dst -> Congest.Trace.restore_into dst ~from:src
        | None, Some dst ->
            (* An untraced checkpoint: restart the trace over the restored
               telemetry, so the phases closed before the checkpoint get a
               zero host profile (see {!Congest.Trace.create}). *)
            Congest.Trace.restore_into dst
              ~from:
                (Congest.Trace.create ~config:(Congest.Trace.config dst)
                   (Congest.Trace.telemetry dst))
        | _ -> ());
        hb_phases_done := s.ck_phase - 1;
        ( Partition.State.restore g ~nodes:s.ck_nodes ~stats:s.ck_stats
            ~rejections:s.ck_rejections ~nominal_rounds:s.ck_nominal_rounds,
          Some (s.ck_phase, s.ck_phases_rev) )
  in
  let hb_on_round =
    Option.map (fun hb rounds -> Obs.Heartbeat.tick hb ~rounds) heartbeat
  in
  st.Partition.State.telemetry <- telemetry;
  st.Partition.State.trace <- trace;
  st.Partition.State.domains <- domains;
  st.Partition.State.fast_forward <- fast_forward;
  st.Partition.State.faults <- faults;
  st.Partition.State.on_round <- hb_on_round;
  Option.iter
    (fun hb ->
      let stats = st.Partition.State.stats in
      Obs.Heartbeat.attach hb ~sample:(fun () ->
          {
            Obs.Heartbeat.rounds = stats.Congest.Stats.rounds;
            charged_rounds = stats.Congest.Stats.charged_rounds;
            messages = stats.Congest.Stats.messages;
            total_bits = stats.Congest.Stats.total_bits;
            phases_done = !hb_phases_done;
            phases_total = hb_phases_total;
          });
      Obs.Heartbeat.publish hb)
    heartbeat;
  (* The non-Stage-I partitions run as one labelled "partition" phase.
     Like Stage I, a fault that breaks their lockstep assumptions
     surfaces as some protocol-level failure, which is a degraded
     execution, never a verdict. *)
  let alternative_partition run_partition =
    Partition.State.phase st "partition";
    let degraded =
      try
        run_partition ();
        None
      with
      | Congest.Faults.Degraded msg -> Some msg
      | e when faults_active ->
          Some ("partition interrupted under faults: " ^ Printexc.to_string e)
    in
    Obs.Log.set_context ~phase:"" ();
    hb_phases_done := 1;
    hb_publish ();
    degraded
  in
  let stage1, partition_degraded =
    match partition with
    | Stage_one ->
        let completed = ref 0 in
        let on_phase next_phase phases_rev =
          incr completed;
          hb_phases_done := next_phase - 1;
          (match checkpoint with
          | Some ck when !completed mod ck.every = 0 ->
              (* The trace's copy holds a copy of its telemetry; the
                 snapshot shares it, so the telemetry is carried once. *)
              let ck_trace = Option.map Congest.Trace.copy trace in
              let ck_telemetry =
                match ck_trace with
                | Some tr -> Some (Congest.Trace.telemetry tr)
                | None -> Option.map Congest.Telemetry.copy telemetry
              in
              ck.save
                {
                  ck_phase = next_phase;
                  ck_phases_rev = phases_rev;
                  ck_nodes = st.Partition.State.nodes;
                  ck_stats = Congest.Stats.copy st.Partition.State.stats;
                  ck_rejections = st.Partition.State.rejections;
                  ck_nominal_rounds = st.Partition.State.nominal_rounds;
                  ck_telemetry;
                  ck_trace;
                }
          | _ -> ());
          hb_publish ()
        in
        let r =
          Partition.Stage1.run ~alpha ~measure_diameters ~state:st ?resume
            ~on_phase g ~eps
        in
        hb_phases_done := List.length r.Partition.Stage1.phases;
        (Some r, r.Partition.Stage1.degraded)
    | Exponential_shifts ->
        ( None,
          alternative_partition (fun () ->
              ignore (Partition.En_partition.run ~seed ~state:st g ~eps)) )
    | Randomized delta ->
        ( None,
          alternative_partition (fun () ->
              ignore
                (Partition.Random_partition.run ~alpha ~state:st g
                   ~eps:(effective_eps g ~eps) ~delta ~seed)) )
  in
  let degraded = ref partition_degraded in
  let partition_rejected =
    match stage1 with
    | Some r -> r.Partition.Stage1.rejected <> []
    | None -> false
  in
  (* Under an active policy, a fault can corrupt the partition state in
     ways Stage II would misread as property violations; verify the
     state centrally and degrade loudly instead of testing on garbage. *)
  if !degraded = None && faults_active && not partition_rejected then (
    try Partition.State.check_invariants st
    with Failure msg ->
      degraded := Some (Printf.sprintf "partition state corrupted: %s" msg));
  let stage2_result =
    if !degraded = None && not partition_rejected then begin
      Partition.State.phase st "stage2";
      hb_publish ();
      let rounds_before = st.Partition.State.stats.Congest.Stats.rounds in
      let r =
        try Some (stage2 st ~eps ~seed) with
        | Congest.Faults.Degraded msg ->
            degraded := Some msg;
            None
        | e when faults_active ->
            degraded :=
              Some
                ("Stage II interrupted under faults: " ^ Printexc.to_string e);
            None
      in
      if Obs.Metrics.enabled () then
        Obs.Metrics.observe m_stage2_rounds
          (st.Partition.State.stats.Congest.Stats.rounds - rounds_before);
      Obs.Log.set_context ~phase:"" ();
      if Option.is_some r then hb_phases_done := hb_phases_total;
      r
    end
    else None
  in
  let stats = st.Partition.State.stats in
  let rejections = st.Partition.State.rejections in
  let verdict =
    match !degraded with
    | Some msg -> Degraded msg
    | None ->
        if rejections = [] then Accept
        else if faults_active && Congest.Stats.faults_fired stats then
          (* One-sided error by construction: rejection evidence gathered
             while the fault layer was interfering could be an artifact of
             a lost or duplicated message, so it is not trustworthy.  An
             input with the property therefore never outputs [Reject]
             under faults — it accepts, or degrades explicitly. *)
          Degraded
            (Printf.sprintf
               "rejection evidence found while faults were active (%d \
                dropped, %d duplicated, %d delayed, %d crashed) — not \
                trustworthy"
               stats.Congest.Stats.dropped stats.Congest.Stats.duplicated
               stats.Congest.Stats.delayed stats.Congest.Stats.crashed_nodes)
        else Reject (List.sort_uniq compare rejections)
  in
  if Obs.Metrics.enabled () then
    Obs.Metrics.inc m_verdicts
      ~labels:
        [ (match verdict with
          | Accept -> "accept"
          | Reject _ -> "reject"
          | Degraded _ -> "degraded") ];
  ( stage2_result,
    {
      verdict;
      stage1;
      rounds = stats.Congest.Stats.rounds;
      nominal_rounds = st.Partition.State.nominal_rounds;
      messages = stats.Congest.Stats.messages;
      total_bits = stats.Congest.Stats.total_bits;
      fast_forwarded_rounds = stats.Congest.Stats.fast_forwarded_rounds;
      dropped = stats.Congest.Stats.dropped;
      duplicated = stats.Congest.Stats.duplicated;
      delayed = stats.Congest.Stats.delayed;
      crashed_nodes = stats.Congest.Stats.crashed_nodes;
    } )
