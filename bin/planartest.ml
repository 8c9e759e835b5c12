(* planartest — command-line front end to the distributed planarity tester
   and its companion algorithms.

     planartest gen --family grid --n 100 > g.txt
     planartest test g.txt --eps 0.2
     planartest partition g.txt --eps 0.3 [--randomized --delta 0.1]
     planartest spanner g.txt --eps 0.25
     planartest info g.txt *)

open Cmdliner
open Graphlib

(* A malformed, missing or unreadable graph is a usage error: log it and
   exit 2 rather than surface an uncaught exception. *)
let read_graph path =
  try match path with "-" -> Gio.of_channel stdin | p -> Gio.load p
  with Invalid_argument msg | Sys_error msg ->
    Obs.Log.errorf "planartest: cannot read graph %s: %s" path msg;
    exit 2

(* Structured logging (Obs.Log).  The CLI defaults to info so progress
   messages ("wrote …") stay visible; --log-level debug opens up engine
   internals and --log-json captures the same records as JSONL. *)

let log_level_arg =
  let doc = "Log verbosity: error, warn, info or debug." in
  Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let log_json_arg =
  let doc =
    "Also emit every log record as one JSON object per line to $(docv) \
     ('-' for stderr).  Records carry a timestamp, level, run id, phase \
     and node context."
  in
  Arg.(value & opt (some string) None & info [ "log-json" ] ~docv:"PATH" ~doc)

let setup_logs level json =
  (* Error-level records are never suppressed and reach the JSONL sink
     too (when one is open), so even CLI-level failures land in
     --log-json instead of bypassing it via bare eprintf. *)
  (match Obs.Log.level_of_string level with
  | Ok l -> Obs.Log.set_level l
  | Error msg ->
      Obs.Log.errorf "planartest: %s" msg;
      exit 2);
  match json with
  | None -> ()
  | Some path -> (
      match Obs.Log.set_json path with
      | Ok () -> at_exit Obs.Log.close_json
      | Error msg ->
          Obs.Log.errorf "planartest: cannot open --log-json %s: %s" path msg;
          exit 2)

let graph_arg =
  let doc = "Input graph file (edge list; '-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)

let eps_arg =
  let doc = "Distance / edge-cut parameter epsilon." in
  Arg.(value & opt float 0.2 & info [ "eps" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 0 & info [ "seed" ] ~doc)

(* --- gen ------------------------------------------------------------- *)

let gen_cmd =
  let family =
    let doc =
      "Family: grid, torus, cycle, path, tree, apollonian, planar, far, \
       gnp, complete, kbipartite, petersen, hypercube, k5necklace."
    in
    Arg.(value & opt string "grid" & info [ "family" ] ~doc)
  in
  let n_arg =
    Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of vertices.")
  in
  let extra =
    Arg.(
      value & opt float 0.2
      & info [ "param" ]
          ~doc:
            "Family parameter: eps for 'far', p*n for 'gnp', edge fraction \
             for 'planar'.")
  in
  let run family n param seed log_level log_json =
    setup_logs log_level log_json;
    let rng = Random.State.make [| seed |] in
    let g =
      try
        match family with
        | "grid" ->
            (* Exactly n vertices: factor n as rows * cols instead of the
               old sqrt-and-round, which silently generated a different
               size for non-squares. *)
            let rows, cols = Generators.grid_dims n in
            Generators.grid rows cols
        | "torus" ->
            let rows, cols = Generators.grid_dims ~min_side:3 n in
            Generators.torus rows cols
        | "cycle" -> Generators.cycle n
        | "path" -> Generators.path n
        | "tree" -> Generators.random_tree rng n
        | "apollonian" -> Generators.apollonian rng n
        | "planar" ->
            let mmax = (3 * n) - 6 in
            Generators.random_planar rng ~n
              ~m:(max (n - 1) (int_of_float (param *. float_of_int mmax)))
        | "far" -> Generators.far_from_planar rng ~n ~eps:param
        | "gnp" -> Generators.gnp rng n (param /. float_of_int n)
        | "complete" -> Generators.complete n
        | "kbipartite" -> Generators.complete_bipartite (n / 2) (n - (n / 2))
        | "petersen" -> Generators.petersen ()
        | "hypercube" ->
            Generators.hypercube
              (int_of_float (log (float_of_int n) /. log 2.0))
        | "k5necklace" -> Generators.k5_necklace (max 1 (n / 5))
        | f -> failwith ("unknown family: " ^ f)
      with Invalid_argument msg | Failure msg ->
        Obs.Log.errorf "planartest gen: %s" msg;
        exit 1
    in
    Obs.Log.infof
      ~fields:[ ("n", Obs.Log.I (Graph.n g)); ("m", Obs.Log.I (Graph.m g)) ]
      "generated %s" family;
    print_string (Gio.to_string g)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a graph from a synthetic family")
    Term.(
      const run $ family $ n_arg $ extra $ seed_arg $ log_level_arg
      $ log_json_arg)

(* --- test ------------------------------------------------------------ *)

let test_cmd =
  let stats_json_arg =
    let doc =
      "Write a machine-readable JSON report (verdict, rejections, round / \
       message / bit totals, per-phase telemetry series) to $(docv); '-' \
       writes it to stdout (the human-readable summary then goes to \
       stderr)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"PATH" ~doc)
  in
  let domains_arg =
    let doc =
      "Shard engine node stepping across $(docv) OCaml domains.  The \
       verdict and every round/message/bit statistic are identical for \
       any value; only wall-clock time changes."
    in
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let faults_arg =
    let doc =
      "Inject a deterministic fault schedule into every engine run.  \
       $(docv) is a comma-separated key=value list: drop, dup, delay, \
       trunc (probabilities), maxdelay (rounds), seed (fault PRNG seed), \
       and crash=NODE@FROM or crash=NODE@FROM-UNTIL (repeatable).  \
       Example: 'drop=0.05,delay=0.02,seed=7,crash=3@10-20'.  With faults \
       active the verdict may be DEGRADED; a planar input never flips to \
       REJECT (one-sided error is preserved by construction)."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let run path eps seed domains stats_json faults_spec trace_out
      trace_capacity no_ff mode_name checkpoint_path checkpoint_every
      checkpoint_exit no_gt property heartbeat_path heartbeat_every
      heartbeat_secs progress ledger_path log_level log_json =
    setup_logs log_level log_json;
    let run_id = Printf.sprintf "planartest:%s:seed=%d" path seed in
    Obs.Log.set_context ~run_id ();
    (match property with
    | "planarity" | "bipartite" | "cycle-free" -> ()
    | p ->
        Obs.Log.errorf
          "planartest test: unknown --property %S (expected planarity, \
           bipartite or cycle-free)"
          p;
        exit 2);
    let g = read_graph path in
    let mode =
      match Congest.Compiled.mode_of_string mode_name with
      | Some m -> m
      | None ->
          Obs.Log.errorf
            "planartest test: unknown --mode %S (expected fiber or compiled)"
            mode_name;
          exit 2
    in
    let faults =
      match faults_spec with
      | None -> None
      | Some spec -> (
          match Congest.Faults.of_spec spec with
          | Ok p -> Some p
          | Error msg ->
              Obs.Log.errorf "planartest test: %s" msg;
              exit 2)
    in
    let fingerprint =
      Report.Checkpoint.fingerprint ~property g ~eps ~seed ~alpha:3 ~faults
    in
    (* --progress draws on stderr only when a human is watching: not a
       tty, or --log-json - sharing the stream, disables it silently. *)
    let progress_live =
      progress && Unix.isatty Unix.stderr && log_json <> Some "-"
    in
    let on_publish =
      if not progress_live then None
      else
        Some
          (fun (p : Obs.Heartbeat.progress) ->
            let pct =
              if p.Obs.Heartbeat.phases_total > 0 then
                100 * p.Obs.Heartbeat.phases_done
                / p.Obs.Heartbeat.phases_total
              else 0
            in
            Printf.eprintf
              "\r[planartest] %3d%% | phase %d/%d | rounds %d | messages %d   \
               %!"
              pct p.Obs.Heartbeat.phases_done p.Obs.Heartbeat.phases_total
              p.Obs.Heartbeat.rounds p.Obs.Heartbeat.messages)
    in
    (if heartbeat_every < 1 then begin
       Obs.Log.errorf "planartest test: --heartbeat-every must be >= 1 (got %d)"
         heartbeat_every;
       exit 2
     end);
    (if heartbeat_secs <= 0.0 then begin
       Obs.Log.errorf "planartest test: --heartbeat-secs must be > 0 (got %g)"
         heartbeat_secs;
       exit 2
     end);
    let heartbeat =
      if heartbeat_path = None && not progress_live then None
      else
        Some
          (Obs.Heartbeat.create ?path:heartbeat_path
             ~every_rounds:heartbeat_every ~every_secs:heartbeat_secs
             ?on_publish ~run_id ~fingerprint ~property ())
    in
    (* Checkpointed runs always record telemetry series, even without
       --stats-json: the snapshot carries the series, so a later resume
       that does ask for --stats-json still gets the full history.  A
       trace projects a telemetry, so a traced run always has one, with
       series only when something keeps them. *)
    let series = stats_json <> None || checkpoint_path <> None in
    let telemetry =
      if series || trace_out <> None then
        Some (Congest.Telemetry.create ~series ())
      else None
    in
    let trace =
      Option.map
        (fun tel ->
          match trace_capacity with
          | None -> Congest.Trace.create tel
          | Some cap when cap >= 1 ->
              Congest.Trace.create
                ~config:
                  { Congest.Trace.default_config with
                    Congest.Trace.capacity = cap }
                tel
          | Some cap ->
              Obs.Log.errorf
                "planartest test: --trace-capacity must be >= 1 (got %d)" cap;
              exit 2)
        (if trace_out <> None then telemetry else None)
    in
    let checkpoint =
      match checkpoint_path with
      | None -> None
      | Some ck_path ->
          let after_save saves =
            Obs.Log.infof "checkpoint %d written to %s" saves ck_path;
            Option.iter
              (fun hb -> Obs.Heartbeat.set_checkpoint hb ck_path)
              heartbeat;
            match checkpoint_exit with
            | Some k when saves >= k ->
                Obs.Log.infof
                  "exiting after checkpoint %d as requested (--checkpoint-exit)"
                  saves;
                exit 3
            | _ -> ()
          in
          Some
            (Report.Checkpoint.stage1 ~path:ck_path ~every:checkpoint_every
               ~after_save ~property g ~eps ~seed ~alpha:3 ~faults)
    in
    (* Planarity keeps its dedicated path (and [Report.tester_stats]) so
       its human output and stats JSON stay byte-identical to pre-harness
       builds; the newer properties run through the harness directly and
       emit the property-tagged document. *)
    let totals_of_report (r : Tester.Planarity_tester.report) =
      {
        Tester.Harness.verdict = r.Tester.Planarity_tester.verdict;
        stage1 = r.Tester.Planarity_tester.stage1;
        rounds = r.Tester.Planarity_tester.rounds;
        nominal_rounds = r.Tester.Planarity_tester.nominal_rounds;
        messages = r.Tester.Planarity_tester.messages;
        total_bits = r.Tester.Planarity_tester.total_bits;
        fast_forwarded_rounds =
          r.Tester.Planarity_tester.fast_forwarded_rounds;
        dropped = r.Tester.Planarity_tester.dropped;
        duplicated = r.Tester.Planarity_tester.duplicated;
        delayed = r.Tester.Planarity_tester.delayed;
        crashed_nodes = r.Tester.Planarity_tester.crashed_nodes;
      }
    in
    let n = Graph.n g and m = Graph.m g in
    let wall_t0 = Unix.gettimeofday () in
    let t, stats_doc =
      try
        match property with
        | "planarity" ->
            let r =
              Tester.Planarity_tester.run ?telemetry ?trace ~domains
                ~fast_forward:(not no_ff) ?faults ~mode ?checkpoint
                ?heartbeat g ~eps ~seed
            in
            ( totals_of_report r,
              fun host ->
                Report.tester_stats ~n ~m ~eps ~seed ~domains ?telemetry
                  ?faults ?host r )
        | "bipartite" ->
            let _, t =
              Tester.Bipartite_tester.run ?telemetry ?trace ~domains
                ~fast_forward:(not no_ff) ?faults ?checkpoint
                ?heartbeat g ~eps ~seed
            in
            ( t,
              fun host ->
                Report.harness_stats ~n ~m ~eps ~seed ~domains ~property
                  ?telemetry ?faults ?host t )
        | _ ->
            let _, t =
              Tester.Cycle_free_tester.run ?telemetry ?trace ~domains
                ~fast_forward:(not no_ff) ?faults ?checkpoint
                ?heartbeat g ~eps ~seed
            in
            ( t,
              fun host ->
                Report.harness_stats ~n ~m ~eps ~seed ~domains ~property
                  ?telemetry ?faults ?host t )
      with Failure msg when checkpoint_path <> None ->
        Obs.Log.errorf "planartest test: %s" msg;
        exit 2
    in
    let wall_s = Unix.gettimeofday () -. wall_t0 in
    let verdict_str =
      match t.Tester.Harness.verdict with
      | Tester.Harness.Accept -> "accept"
      | Tester.Harness.Reject _ -> "reject"
      | Tester.Harness.Degraded _ -> "degraded"
    in
    Option.iter (fun hb -> Obs.Heartbeat.finish hb ~verdict:verdict_str)
      heartbeat;
    if progress_live then prerr_newline ();
    (match ledger_path with
    | None -> ()
    | Some lp -> (
        let record =
          {
            Report.Ledger.ts = Unix.gettimeofday ();
            tool = "planartest";
            run_id;
            fingerprint;
            property;
            config =
              [
                ("graph", path);
                ("eps", Printf.sprintf "%g" eps);
                ("seed", string_of_int seed);
                ("domains", string_of_int domains);
                ("mode", mode_name);
                ("fast_forward", string_of_bool (not no_ff));
                ("faults", Option.value ~default:"none" faults_spec);
              ];
            verdict = verdict_str;
            digest =
              Report.Ledger.digest_core ~property ~verdict:verdict_str
                ~rounds:t.Tester.Harness.rounds
                ~nominal_rounds:t.Tester.Harness.nominal_rounds
                ~messages:t.Tester.Harness.messages
                ~total_bits:t.Tester.Harness.total_bits
                ~fast_forwarded_rounds:t.Tester.Harness.fast_forwarded_rounds
                ~dropped:t.Tester.Harness.dropped
                ~duplicated:t.Tester.Harness.duplicated
                ~delayed:t.Tester.Harness.delayed
                ~crashed_nodes:t.Tester.Harness.crashed_nodes;
            rounds = t.Tester.Harness.rounds;
            nominal_rounds = t.Tester.Harness.nominal_rounds;
            messages = t.Tester.Harness.messages;
            total_bits = t.Tester.Harness.total_bits;
            wall_s;
            host = Unix.gethostname ();
          }
        in
        try
          Report.Ledger.append ~path:lp record;
          Obs.Log.infof "ledger record appended to %s" lp
        with
        | Sys_error msg ->
            Obs.Log.errorf "planartest test: cannot append to ledger: %s" msg;
            exit 1
        | Unix.Unix_error (e, _, _) ->
            Obs.Log.errorf "planartest test: cannot append to ledger: %s"
              (Unix.error_message e);
            exit 1));
    Option.iter Congest.Trace.finish trace;
    (match (trace_out, trace) with
    | Some path, Some tr -> (
        try
          Report.Ctrace.write path tr;
          Obs.Log.infof "wrote %s" path
        with Sys_error msg ->
          Obs.Log.errorf "planartest test: cannot write trace: %s" msg;
          exit 1)
    | _ -> ());
    (* Traced runs feed the ~stable critpath counters — but only when a
       metrics registry is live (planarmon-style embedding); the
       analysis is skipped entirely otherwise, so plain runs pay
       nothing. *)
    (match trace with
    | Some tr when Obs.Metrics.enabled () ->
        Obs.Critpath.record_metrics
          (Report.Critpath_report.analyze (Report.Ctrace.of_trace tr))
    | _ -> ());
    (* With --stats-json -, stdout carries exactly the JSON document; the
       human-readable summary moves to stderr. *)
    let hum = if stats_json = Some "-" then stderr else stdout in
    let human fmt = Printf.fprintf hum fmt in
    (match t.Tester.Harness.verdict with
    | Tester.Harness.Accept -> human "ACCEPT (all nodes)\n"
    | Tester.Harness.Reject l ->
        human "REJECT (%d nodes)\n" (List.length l);
        List.iteri
          (fun i (node, reason) ->
            if i < 5 then human "  node %d: %s\n" node reason)
          l
    | Tester.Harness.Degraded msg ->
        human "DEGRADED (no trustworthy verdict under faults)\n  %s\n" msg);
    human
      "rounds (simulated) : %d\nrounds (nominal)   : %d\nrounds \
       (fast-fwd)  : %d\nmessages           : %d\ntotal bits         : %d\n"
      t.Tester.Harness.rounds t.Tester.Harness.nominal_rounds
      t.Tester.Harness.fast_forwarded_rounds t.Tester.Harness.messages
      t.Tester.Harness.total_bits;
    if faults <> None then
      human
        "faults             : dropped=%d duplicated=%d delayed=%d \
         crashed=%d\n"
        t.Tester.Harness.dropped t.Tester.Harness.duplicated
        t.Tester.Harness.delayed t.Tester.Harness.crashed_nodes;
    if not no_gt then
      (match property with
      | "planarity" ->
          human "ground truth (LR)  : %s\n"
            (if Planarity.Lr.is_planar g then "planar" else "non-planar")
      | "bipartite" ->
          human "ground truth       : %s\n"
            (if Partition.Reference.is_bipartite g then "bipartite"
             else "non-bipartite")
      | _ ->
          let excess = Partition.Reference.excess_edges g in
          human "ground truth       : %s\n"
            (if excess = 0 then "cycle-free"
             else Printf.sprintf "has cycles (excess %d)" excess));
    match stats_json with
    | Some out ->
        let j = stats_doc trace in
        (try Report.write out j
         with Sys_error msg ->
           Obs.Log.errorf "planartest test: cannot write stats: %s" msg;
           exit 1);
        if out <> "-" then Obs.Log.infof "wrote %s" out
    | None -> ()
  in
  let trace_arg =
    let doc =
      "Record an event-level trace (message deliveries, fault firings, \
       fiber resume/park, fast-forward spans, domain-shard boundaries) \
       and write it as a binary .ctrace file to $(docv).  Analyze or \
       export it with $(b,planartrace).  Also switches --stats-json to \
       the planartest.stats/v3 schema, whose 'host' block carries \
       per-phase wall-clock / GC / load-imbalance profiles."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let trace_capacity_arg =
    let doc =
      "Trace ring capacity in events (with --trace; default 65536).  \
       Aggregates are exact at any capacity, but per-event analyses — \
       $(b,planartrace critpath) in particular — need the ring to hold \
       the whole run; size it above the expected event count (roughly \
       messages + 2 steps per node per active round) to avoid a lossy \
       profile."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-capacity" ] ~docv:"N" ~doc)
  in
  let no_ff_arg =
    let doc =
      "Disable the engine's quiescent-round fast-forward (the measurement \
       baseline).  The verdict and all round/message/bit accounting are \
       identical either way — compare with $(b,planartrace diff)."
    in
    Arg.(value & flag & info [ "no-fast-forward" ] ~doc)
  in
  let mode_arg =
    let doc =
      "Accepted for compatibility and validated ($(b,fiber) or \
       $(b,compiled)); it selects nothing.  Every protocol kernel runs on \
       the one engine, so the verdict, statistics, telemetry and --trace \
       event stream are the same for either value."
    in
    Arg.(value & opt string "fiber" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let checkpoint_arg =
    let doc =
      "Checkpoint the run to $(docv) at Stage I phase boundaries and \
       resume from it when the file already exists.  The file is \
       checksummed and parameter-fingerprinted (graph, eps, seed, faults); \
       resuming with different parameters is refused.  A resumed run's \
       final statistics, per-round telemetry and .ctrace aggregates are \
       byte-identical to an uninterrupted one's (host wall-clock \
       profiles restart at the resume point)."
    in
    Arg.(
      value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let checkpoint_every_arg =
    let doc = "Save a checkpoint every $(docv)-th completed Stage I phase." in
    Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"K" ~doc)
  in
  let checkpoint_exit_arg =
    let doc =
      "Testing hook: exit with status 3 right after the $(docv)-th \
       checkpoint save, simulating an interruption.  Rerun with the same \
       --checkpoint to resume."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-exit" ] ~docv:"N" ~doc)
  in
  let no_gt_arg =
    let doc =
      "Skip the centralized left-right planarity check printed as 'ground \
       truth' (it is diagnostic only; skipping it saves a full \
       centralized pass on multi-million-node inputs)."
    in
    Arg.(value & flag & info [ "no-ground-truth" ] ~doc)
  in
  let property_arg =
    let doc =
      "Property to test: $(b,planarity) (the paper's tester), \
       $(b,bipartite) (odd-cycle detection via per-part 2-coloring) or \
       $(b,cycle-free) (per-part excess-edge counting).  All three share \
       the Stage I partition harness and its accounting guarantees \
       (byte-identical stats across --domains and fast-forward)."
    in
    Arg.(value & opt string "planarity" & info [ "property" ] ~docv:"PROP" ~doc)
  in
  let heartbeat_arg =
    let doc =
      "Publish a live heartbeat/v1 status document to $(docv), atomically \
       replaced (tmp+rename) every --heartbeat-every charged rounds and/or \
       --heartbeat-secs wall-seconds, plus at every phase boundary.  Tail \
       it with $(b,planarmon attach).  Purely host-side: the verdict, \
       stats JSON, stable metrics and --trace stream are byte-identical \
       with or without it."
    in
    Arg.(
      value & opt (some string) None & info [ "heartbeat" ] ~docv:"FILE" ~doc)
  in
  let heartbeat_every_arg =
    let doc = "Heartbeat republication cadence in charged rounds." in
    Arg.(value & opt int 8192 & info [ "heartbeat-every" ] ~docv:"K" ~doc)
  in
  let heartbeat_secs_arg =
    let doc = "Heartbeat republication cadence in wall-clock seconds." in
    Arg.(value & opt float 1.0 & info [ "heartbeat-secs" ] ~docv:"SECS" ~doc)
  in
  let progress_arg =
    let doc =
      "Draw a single-line progress bar on stderr, driven by the heartbeat \
       callback (works with or without --heartbeat).  Auto-disabled when \
       stderr is not a tty or --log-json - would share the stream."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let ledger_arg =
    let doc =
      "Append one runs.ledger/v1 JSONL provenance record (fingerprint, \
       config, verdict, deterministic stats digest, wall time, host) to \
       $(docv) when the run completes.  Summarize with $(b,planarmon \
       history)."
    in
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "test" ~doc:"Run a distributed property tester")
    Term.(
      const run $ graph_arg $ eps_arg $ seed_arg $ domains_arg
      $ stats_json_arg $ faults_arg $ trace_arg $ trace_capacity_arg
      $ no_ff_arg $ mode_arg
      $ checkpoint_arg $ checkpoint_every_arg $ checkpoint_exit_arg
      $ no_gt_arg $ property_arg $ heartbeat_arg $ heartbeat_every_arg
      $ heartbeat_secs_arg $ progress_arg $ ledger_arg $ log_level_arg
      $ log_json_arg)

(* --- partition -------------------------------------------------------- *)

let partition_cmd =
  let randomized =
    Arg.(value & flag & info [ "randomized" ] ~doc:"Use the Theorem 4 variant.")
  in
  let delta =
    Arg.(value & opt float 0.1 & info [ "delta" ] ~doc:"Confidence parameter.")
  in
  let run path eps seed randomized delta =
    let g = read_graph path in
    if randomized then begin
      let r = Partition.Random_partition.run g ~eps ~delta ~seed in
      Printf.printf
        "randomized partition: phases=%d cut=%d (target %.0f) rounds=%d\n"
        r.Partition.Random_partition.phases r.Partition.Random_partition.cut
        (eps *. float_of_int (Graph.n g))
        r.Partition.Random_partition.rounds
    end
    else begin
      let r = Partition.Stage1.run g ~eps in
      Printf.printf "deterministic partition (Stage I):\n";
      List.iter
        (fun (p : Partition.Stage1.phase_trace) ->
          Printf.printf
            "  phase %d: cut %d -> %d, parts=%d, max diameter=%d, depth=%d\n"
            p.Partition.Stage1.phase p.Partition.Stage1.cut_before
            p.Partition.Stage1.cut_after p.Partition.Stage1.parts
            p.Partition.Stage1.max_diameter p.Partition.Stage1.max_tree_depth)
        r.Partition.Stage1.phases;
      match r.Partition.Stage1.rejected with
      | [] ->
          Printf.printf "final cut=%d (target %.0f), rounds=%d, nominal=%d\n"
            (Partition.State.cut_edges r.Partition.Stage1.state)
            (eps *. float_of_int (Graph.m g) /. 2.0)
            r.Partition.Stage1.rounds r.Partition.Stage1.nominal_rounds
      | (node, reason) :: _ ->
          Printf.printf "REJECTED during partition: node %d: %s\n" node reason
    end
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Run the Stage I / Theorem 4 partition")
    Term.(const run $ graph_arg $ eps_arg $ seed_arg $ randomized $ delta)

(* --- spanner ----------------------------------------------------------- *)

let spanner_cmd =
  let run path eps seed =
    let g = read_graph path in
    let r = Tester.Spanner.build g ~eps ~seed in
    let stretch = Tester.Spanner.measured_stretch g r.Tester.Spanner.spanner in
    Printf.printf
      "spanner: %d edges (input %d, bound (1+eps)n = %.0f)\n\
       tree edges=%d cut edges=%d\nstretch: measured=%d bound=%d\n"
      (Graph.m r.Tester.Spanner.spanner)
      (Graph.m g)
      ((1.0 +. eps) *. float_of_int (Graph.n g))
      r.Tester.Spanner.tree_edges r.Tester.Spanner.cut_edges stretch
      r.Tester.Spanner.stretch_bound
  in
  Cmd.v
    (Cmd.info "spanner" ~doc:"Build the Corollary 17 spanner")
    Term.(const run $ graph_arg $ eps_arg $ seed_arg)

(* --- witness ------------------------------------------------------------ *)

let witness_cmd =
  let run path =
    let g = read_graph path in
    match Planarity.Kuratowski.find g with
    | None -> print_endline "planar: no Kuratowski witness exists"
    | Some w ->
        Printf.printf "non-planar: contains a subdivision of %s\n"
          (match w.Planarity.Kuratowski.kind with
          | Planarity.Kuratowski.K5 -> "K5"
          | Planarity.Kuratowski.K33 -> "K3,3");
        Printf.printf "branch vertices: %s\n"
          (String.concat " "
             (List.map string_of_int w.Planarity.Kuratowski.branch_vertices));
        Printf.printf "subdivision edges (%d):\n"
          (List.length w.Planarity.Kuratowski.edges);
        List.iter
          (fun (u, v) -> Printf.printf "  %d %d\n" u v)
          w.Planarity.Kuratowski.edges;
        Printf.printf "witness verifies: %b\n" (Planarity.Kuratowski.verify g w)
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"Extract a Kuratowski (K5 / K3,3 subdivision) witness")
    Term.(const run $ graph_arg)

(* --- info -------------------------------------------------------------- *)

let info_cmd =
  let run path =
    let g = read_graph path in
    Printf.printf "n=%d m=%d max degree=%d connected=%b\n" (Graph.n g)
      (Graph.m g) (Graph.max_degree g) (Traversal.is_connected g);
    Printf.printf "planar (left-right test): %b\n" (Planarity.Lr.is_planar g);
    Printf.printf "distance to planarity: >= %d (Euler), <= %d (greedy)\n"
      (Planarity.Distance.euler_lower_bound g)
      (Planarity.Distance.greedy_upper_bound g);
    match Girth.girth_upto g 24 with
    | Some girth -> Printf.printf "girth: %d\n" girth
    | None -> Printf.printf "girth: > 24 (or acyclic)\n"
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Centralized diagnostics for a graph")
    Term.(const run $ graph_arg)

let () =
  let doc = "distributed property testing of planarity (PODC 2018)" in
  (* [n] is a single-character option, which cmdliner only accepts as
     [-n]; keep the documented [--n N] spelling working too. *)
  let argv = Array.map (fun a -> if a = "--n" then "-n" else a) Sys.argv in
  exit
    (Cmd.eval ~argv
       (Cmd.group (Cmd.info "planartest" ~doc)
          [ gen_cmd; test_cmd; partition_cmd; spanner_cmd; witness_cmd; info_cmd ]))
