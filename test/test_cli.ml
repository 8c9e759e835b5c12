(* End-to-end smoke tests for the CLI contracts this PR pins down:

   - planartrace: bad arguments exit 2 with usage on stderr (never 0,
     never an uncaught exception, never cmdliner's 124);
   - planarmon compare: 0 on agreement, 1 on deterministic mismatch,
     2 on IO/usage errors;
   - bench --json -: machine JSON on stdout, human report on stderr.

   The binaries are built by dune (see the [deps] in test/dune) and
   invoked relative to the test's cwd inside [_build]. *)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let planartest = "../bin/planartest.exe"
let planartrace = "../bin/planartrace.exe"
let planarmon = "../bin/planarmon.exe"
let bench = "../bench/main.exe"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run [argv], return (exit code, stdout, stderr). *)
let run argv =
  let out = Filename.temp_file "cli" ".out" in
  let err = Filename.temp_file "cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let cmd =
        Printf.sprintf "%s > %s 2> %s"
          (String.concat " " (List.map Filename.quote argv))
          (Filename.quote out) (Filename.quote err)
      in
      let code = Sys.command cmd in
      (code, slurp out, slurp err))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* planartrace exit paths                                              *)
(* ------------------------------------------------------------------ *)

let test_planartrace_bad_args () =
  let code, _, err = run [ planartrace; "no-such-subcommand" ] in
  check ci "unknown subcommand exits 2" 2 code;
  check cb "usage goes to stderr" true (contains err "planartrace");
  let code, _, err = run [ planartrace; "export" ] in
  check ci "missing argument exits 2" 2 code;
  check cb "stderr names the problem" true (String.length err > 0)

let test_planartrace_corrupt_input () =
  let path = Filename.temp_file "bogus" ".ctrace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "this is not a trace file";
      let code, _, err = run [ planartrace; "info"; path ] in
      check ci "corrupt trace exits 2" 2 code;
      check cb "error mentions the corruption" true
        (contains err "corrupt" || contains err "trace"))

let test_planartrace_help () =
  let code, out, _ = run [ planartrace; "--help" ] in
  check ci "--help exits 0" 0 code;
  check cb "help text rendered" true (contains out "planartrace")

(* ------------------------------------------------------------------ *)
(* planarmon compare exit paths                                        *)
(* ------------------------------------------------------------------ *)

let metrics_doc value =
  Printf.sprintf
    {|{"schema":"metrics/v1","metrics":[{"name":"congest_rounds","kind":"counter","help":"h","stable":true,"series":[{"labels":{},"value":%d}]}]}|}
    value

let with_two_files a b f =
  let pa = Filename.temp_file "base" ".json" in
  let pb = Filename.temp_file "cand" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove pa;
      Sys.remove pb)
    (fun () ->
      write_file pa a;
      write_file pb b;
      f pa pb)

let test_planarmon_compare_ok () =
  with_two_files (metrics_doc 42) (metrics_doc 42) (fun a b ->
      let code, out, _ = run [ planarmon; "compare"; a; b ] in
      check ci "identical documents exit 0" 0 code;
      check cb "summary reports OK" true (contains out "OK"))

let test_planarmon_compare_mismatch () =
  with_two_files (metrics_doc 42) (metrics_doc 43) (fun a b ->
      let code, out, _ = run [ planarmon; "compare"; a; b ] in
      check ci "stable-value drift exits 1" 1 code;
      check cb "offender table names the family" true
        (contains out "congest_rounds"))

let test_planarmon_compare_io_error () =
  let code, _, err =
    run [ planarmon; "compare"; "/nonexistent/a.json"; "/nonexistent/b.json" ]
  in
  check ci "unreadable input exits 2" 2 code;
  check cb "stderr explains" true (String.length err > 0)

let test_planarmon_bad_args () =
  let code, _, _ = run [ planarmon; "no-such-subcommand" ] in
  check ci "unknown subcommand exits 2" 2 code;
  let code, _, _ = run [ planarmon; "compare"; "only-one-file" ] in
  check ci "missing operand exits 2" 2 code

(* Two bench documents from the same commit differ in their clock
   readings (C1 per-round throughput, L1 heartbeat overhead) and, across
   --jobs/--domains, in the members the invocation fixes (the envelope
   echo, M1's engine bytes).  None of them is simulated accounting, so
   compare --no-wall must pass them; a simulated member still gates. *)
let bench_doc ~domains ~per_sec ~overhead ~node_bytes ~rounds =
  Printf.sprintf
    {|{"schema":"bench.planarity/v1","quick":true,"jobs":%d,"domains":%d,"experiments":[{"id":"C1","title":"t","claim":"c","data":[{"family":"grid","rounds":%d,"fiber_seconds":%g,"fiber_rounds_per_sec":%g,"compiled_rounds_per_sec":%g,"speedup":%g}]},{"id":"L1","title":"t","claim":"c","data":{"rounds":%d,"publishes_per_run":%d,"overhead_pct":%g}},{"id":"M1","title":"t","claim":"c","data":[{"n":2500,"node_bytes":%d,"edge_bytes":235200,"slab_bytes":%d,"bytes_per_node":%g}]}]}|}
    domains domains rounds (1000.0 /. per_sec) per_sec (9.0 *. per_sec) 9.0
    rounds domains overhead node_bytes (2 * node_bytes)
    (float_of_int node_bytes /. 2500.0)

let test_planarmon_compare_bench_clock_fields () =
  let doc ?(domains = 1) ?(per_sec = 4793.0) ?(overhead = 9.55)
      ?(node_bytes = 182508) ?(rounds = 15884) () =
    bench_doc ~domains ~per_sec ~overhead ~node_bytes ~rounds
  in
  let compare what expect candidate =
    with_two_files (doc ()) candidate (fun a b ->
        let code, out, _ = run [ planarmon; "compare"; "--no-wall"; a; b ] in
        check ci what expect code;
        if expect = 1 then
          check cb "offender is the rounds member" true (contains out "rounds"))
  in
  compare "clock readings do not mismatch" 0
    (doc ~per_sec:5120.0 ~overhead:1.2 ());
  compare "--jobs/--domains members do not mismatch" 0
    (doc ~domains:2 ~node_bytes:222508 ());
  compare "a simulated member still mismatches" 1 (doc ~rounds:15885 ())

(* ------------------------------------------------------------------ *)
(* bench --json -: stream separation                                   *)
(* ------------------------------------------------------------------ *)

let test_bench_stream_split () =
  let code, out, err =
    run [ bench; "--only"; "E1"; "--quick"; "--no-timings"; "--json"; "-" ]
  in
  check ci "bench exits 0" 0 code;
  (match Report.Json_parse.of_string out with
  | Ok (Report.Json.Obj fields) ->
      check cb "stdout is exactly one bench.planarity/v1 document" true
        (List.assoc_opt "schema" fields
        = Some (Report.Json.String "bench.planarity/v1"))
  | Ok _ -> Alcotest.fail "stdout JSON is not an object"
  | Error e -> Alcotest.failf "stdout is not pure JSON: %s" e);
  check cb "human report moved to stderr" true (contains err "E1");
  check cb "no human chrome leaked into stdout" false (contains out "====")

(* --no-timings keeps no member that Report.field_class calls a clock or
   host reading, in the JSON or in the text (P1 is the experiment with
   both kinds). *)
let test_bench_no_timings_drops_clock_and_host () =
  let code, out, err =
    run [ bench; "--only"; "P1"; "--quick"; "--no-timings"; "--json"; "-" ]
  in
  check ci "bench exits 0" 0 code;
  let rec timed = function
    | Report.Json.Obj members ->
        List.concat_map
          (fun (k, v) ->
            match Report.field_class k with
            | Report.Clock | Report.Host -> k :: timed v
            | Report.Simulated | Report.Config -> timed v)
          members
    | Report.Json.List xs -> List.concat_map timed xs
    | _ -> []
  in
  (match Report.Json_parse.of_string out with
  | Ok doc ->
      check (Alcotest.list Alcotest.string) "no clock or host member" []
        (timed doc)
  | Error e -> Alcotest.failf "stdout is not JSON: %s" e);
  check cb "report names no host core count" false (contains err "host cores")

(* A violated experiment invariant stops bench with exit 1 and a
   "bench: <ID>:" message, never an uncaught exception. *)
let test_bench_gate_exits_1 () =
  let code, _, err =
    run
      [
        "env"; "L1_MAX_OVERHEAD_PCT=-1000"; bench; "--only"; "L1"; "--quick";
      ]
  in
  check ci "violated L1 gate exits 1" 1 code;
  check cb "message names the experiment" true (contains err "bench: L1: ");
  let code, _, err =
    run [ "env"; "L1_MAX_OVERHEAD_PCT=lots"; bench; "--only"; "L1"; "--quick" ]
  in
  check ci "malformed threshold exits 2" 2 code;
  check cb "message names the variable" true
    (contains err "L1_MAX_OVERHEAD_PCT")

let test_bench_rejects_unknown_experiment () =
  let code, _, err = run [ bench; "--only"; "E99"; "--quick" ] in
  check ci "unknown experiment id exits 2" 2 code;
  check cb "stderr names the id" true (contains err "E99")

(* ------------------------------------------------------------------ *)
(* --mode: accepted and validated by planartest; it selects nothing      *)
(* ------------------------------------------------------------------ *)

let with_graph f =
  let path = Filename.temp_file "modegraph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, out, _ =
        run [ planartest; "gen"; "--family"; "cycle"; "-n"; "32" ]
      in
      check ci "gen exits 0" 0 code;
      write_file path out;
      f path)

(* bench has no --mode: there is one executor, so the flag is an unknown
   argument like any other. *)
let test_bench_rejects_unknown_mode () =
  let code, _, err = run [ bench; "--mode"; "bogus"; "--quick" ] in
  check ci "unknown --mode exits 2" 2 code;
  check cb "stderr names the bad argument" true (contains err "--mode")

let test_planartest_rejects_unknown_mode () =
  with_graph (fun g ->
      List.iter
        (fun mode ->
          let code, _, err =
            run [ planartest; "test"; g; "--eps"; "0.3"; "--mode"; mode ]
          in
          check ci ("--mode " ^ mode ^ " exits 2") 2 code;
          check cb "stderr names the bad value" true (contains err mode))
        [ "bogus"; "auto" ])

let test_planartest_mode_stats_identical () =
  with_graph (fun g ->
      let stats mode =
        let out = Filename.temp_file "modestats" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove out)
          (fun () ->
            let code, _, _ =
              run
                [
                  planartest; "test"; g; "--eps"; "0.3"; "--mode"; mode;
                  "--stats-json"; out; "--log-level"; "warn";
                ]
            in
            check ci (mode ^ " run exits 0") 0 code;
            slurp out)
      in
      check Alcotest.string "fiber and compiled stats JSON are byte-identical"
        (stats "fiber") (stats "compiled"))

(* The domain count is an engine setting, not a simulated fact: the
   stats JSON of one run at --domains 1 and 4 differs only in members
   that follow it (the echoed [domains], telemetry's per-phase
   [parallel_rounds] and [max_domains]), which compare --no-wall
   skips. *)
let test_planartest_domains_compare () =
  let g = Filename.temp_file "domgraph" ".txt" in
  let d1 = Filename.temp_file "d1" ".json" in
  let d4 = Filename.temp_file "d4" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ g; d1; d4 ])
    (fun () ->
      let code, out, _ =
        run [ planartest; "gen"; "--family"; "grid"; "-n"; "256" ]
      in
      check ci "gen exits 0" 0 code;
      write_file g out;
      List.iter
        (fun (d, path) ->
          let code, _, _ =
            run
              [
                planartest; "test"; g; "--eps"; "0.3"; "--domains"; d;
                "--stats-json"; path; "--log-level"; "warn";
              ]
          in
          check ci ("--domains " ^ d ^ " run exits 0") 0 code)
        [ ("1", d1); ("4", d4) ];
      check cb "the 4-domain run sharded rounds" true
        (contains (slurp d4) {|"max_domains":4|});
      let code, out, _ = run [ planarmon; "compare"; "--no-wall"; d1; d4 ] in
      check ci "compare --no-wall exits 0" 0 code;
      check cb "no mismatch reported" false (contains out "MISMATCH"))

(* A far input plus one hub adjacent to 40 nodes: its notice table
   overflows ([3 * alpha] = 9 slots at the default alpha), and the
   tables are written from hooks on worker domains at --domains 4 and
   17.  The compiled run at --domains 1 is byte-identical to the fiber
   one; every other leg compares equal to it under --no-wall. *)
let test_planartest_hub_stats_identical () =
  let g = Filename.temp_file "hubgraph" ".txt" in
  let json leg = Filename.temp_file ("hub-" ^ leg) ".json" in
  let legs =
    List.concat_map
      (fun d ->
        List.map (fun mode -> (mode, d, json (mode ^ d))) [ "fiber"; "compiled" ])
      [ "1"; "4"; "17" ]
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (_, _, p) -> Sys.remove p) legs;
      Sys.remove g)
    (fun () ->
      let code, out, _ =
        run
          [
            planartest; "gen"; "--family"; "far"; "-n"; "512"; "--param"; "0.25";
          ]
      in
      check ci "gen exits 0" 0 code;
      let n, m, edges =
        match String.split_on_char '\n' out with
        | header :: edges -> (
            match String.split_on_char ' ' header with
            | [ n; m ] -> (int_of_string n, int_of_string m, edges)
            | _ -> Alcotest.fail "gen header")
        | [] -> Alcotest.fail "gen output"
      in
      let spokes = List.init 40 (fun i -> Printf.sprintf "%d %d" (i * 12) n) in
      write_file g
        (Printf.sprintf "%d %d\n%s%s\n" (n + 1) (m + 40)
           (String.concat "\n" (List.filter (( <> ) "") edges @ [ "" ]))
           (String.concat "\n" spokes));
      List.iter
        (fun (mode, d, path) ->
          let code, out, _ =
            run
              [
                planartest; "test"; g; "--eps"; "0.3"; "--mode"; mode;
                "--domains"; d; "--stats-json"; path; "--log-level"; "warn";
              ]
          in
          check ci (Printf.sprintf "%s --domains %s exits 0" mode d) 0 code;
          check cb "rejects" true (contains out "REJECT"))
        legs;
      let reference = List.nth legs 0 and serial_compiled = List.nth legs 1 in
      let path (_, _, p) = p in
      check Alcotest.string "compiled --domains 1 stats JSON byte-identical"
        (slurp (path reference)) (slurp (path serial_compiled));
      List.iter
        (fun (mode, d, p) ->
          let code, _, _ =
            run [ planarmon; "compare"; "--no-wall"; path reference; p ]
          in
          check ci
            (Printf.sprintf "%s --domains %s compares equal" mode d)
            0 code)
        (List.tl legs))

(* ------------------------------------------------------------------ *)
(* planartest graph input: malformed or missing files are usage errors  *)
(* ------------------------------------------------------------------ *)

let test_planartest_bad_graph_exits_2 () =
  let bad =
    [
      ("non-numeric ids", "3 2\nx y\n0 1\n");
      ("endpoint too large", "3 1\n0 5\n");
      ("endpoint equal to n", "3 1\n3 1\n");
      ("edge-count mismatch", "3 2\n0 1\n");
      ("empty file", "");
      ("negative n", "-3 0\n");
      ("self-loop", "3 1\n1 1\n");
      ("double space", "3 1\n0  1\n");
    ]
  in
  let dir = Filename.temp_dir "badgraph" "" in
  let missing = Filename.concat dir "no-such-graph.txt" in
  let expect_exit_2 what path =
    List.iter
      (fun cmd ->
        let code, _, err = run [ planartest; cmd; path ] in
        let what = Printf.sprintf "planartest %s on %s" cmd what in
        check ci (what ^ " exits 2") 2 code;
        check cb (what ^ ": no uncaught exception") false
          (contains err "uncaught exception"))
      [ "test"; "info"; "partition"; "spanner" ]
  in
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      List.iter
        (fun (what, text) ->
          let path = Filename.temp_file "badgraph" ".txt" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              write_file path text;
              expect_exit_2 what path))
        bad;
      expect_exit_2 "nonexistent path" missing;
      expect_exit_2 "directory" dir)

(* ------------------------------------------------------------------ *)
(* planartest --property: the tester portfolio through the CLI         *)
(* ------------------------------------------------------------------ *)

let test_planartest_rejects_unknown_property () =
  with_graph (fun g ->
      let code, _, err =
        run [ planartest; "test"; g; "--eps"; "0.3"; "--property"; "nonsense" ]
      in
      check ci "unknown --property exits 2" 2 code;
      check cb "stderr names the bad value" true (contains err "nonsense"))

let test_planartest_property_runs () =
  (* a 32-cycle holds all three properties except cycle-freeness; every
     run must exit 0 (a Reject verdict is still a successful run) and
     stamp the stats JSON with the property member for the new testers *)
  with_graph (fun g ->
      List.iter
        (fun (property, expect_member) ->
          let out = Filename.temp_file "propstats" ".json" in
          Fun.protect
            ~finally:(fun () -> Sys.remove out)
            (fun () ->
              let code, _, _ =
                run
                  [
                    planartest; "test"; g; "--eps"; "0.3"; "--property";
                    property; "--stats-json"; out; "--log-level"; "warn";
                  ]
              in
              check ci (property ^ " run exits 0") 0 code;
              let doc = slurp out in
              check cb
                (property ^ " property member in stats")
                expect_member
                (contains doc
                   (Printf.sprintf "\"property\":%S" property))))
        [ ("planarity", false); ("bipartite", true); ("cycle-free", true) ])

let test_planartest_property_mode_stats_identical () =
  (* The new testers inherit the engine contract: fiber and compiled
     stats JSON are byte-identical. *)
  with_graph (fun g ->
      let stats property mode =
        let out = Filename.temp_file "propmode" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove out)
          (fun () ->
            let code, _, _ =
              run
                [
                  planartest; "test"; g; "--eps"; "0.3"; "--property";
                  property; "--mode"; mode; "--stats-json"; out;
                  "--log-level"; "warn";
                ]
            in
            check ci (property ^ "/" ^ mode ^ " run exits 0") 0 code;
            slurp out)
      in
      List.iter
        (fun property ->
          check Alcotest.string
            (property ^ ": fiber == compiled stats JSON")
            (stats property "fiber")
            (stats property "compiled"))
        [ "bipartite"; "cycle-free" ])

(* ------------------------------------------------------------------ *)
(* planarmon attach / history, planartest --heartbeat/--progress/--ledger *)
(* ------------------------------------------------------------------ *)

let replace_once hay needle repl =
  let nh = String.length hay and nn = String.length needle in
  let rec find i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> hay
  | Some i ->
      String.sub hay 0 i ^ repl ^ String.sub hay (i + nn) (nh - i - nn)

(* One tester run with --heartbeat and --ledger; returns the heartbeat
   document and leaves the ledger at [ledger]. *)
let with_finished_heartbeat f =
  with_graph (fun g ->
      let hb = Filename.temp_file "hb" ".json" in
      let ledger = Filename.temp_file "runs" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove hb;
          Sys.remove ledger)
        (fun () ->
          let code, _, _ =
            run
              [
                planartest; "test"; g; "--eps"; "0.3"; "--heartbeat"; hb;
                "--heartbeat-every"; "4"; "--ledger"; ledger; "--log-level";
                "warn";
              ]
          in
          check ci "heartbeat run exits 0" 0 code;
          f ~graph:g ~hb ~ledger))

let test_attach_missing_file () =
  let code, _, err = run [ planarmon; "attach"; "/nonexistent/hb.json" ] in
  check ci "missing heartbeat exits 2" 2 code;
  check cb "stderr explains" true (String.length err > 0)

let test_attach_corrupt_file () =
  let path = Filename.temp_file "hb" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path "not a heartbeat";
      let code, _, _ = run [ planarmon; "attach"; path ] in
      check ci "corrupt heartbeat exits 2" 2 code;
      write_file path {|{"schema":"metrics/v1"}|};
      let code, _, _ = run [ planarmon; "attach"; path ] in
      check ci "wrong schema exits 2" 2 code)

let test_attach_completed_and_stalled () =
  with_finished_heartbeat (fun ~graph:_ ~hb ~ledger:_ ->
      let code, out, _ = run [ planarmon; "attach"; hb ] in
      check ci "finished run exits 0" 0 code;
      check cb "verdict printed" true (contains out "verdict=");
      (* Rewind the same document to a live state with no writer behind
         it: attach must declare the run dead after --stall-after. *)
      let doc = slurp hb in
      let stalled =
        replace_once doc {|"state":"done"|} {|"state":"running"|}
      in
      check cb "rewrite changed the document" true (stalled <> doc);
      write_file hb stalled;
      let code, _, err =
        run
          [
            planarmon; "attach"; hb; "--stall-after"; "0.5"; "--interval";
            "0.1";
          ]
      in
      check ci "stalled heartbeat exits 1" 1 code;
      check cb "stall diagnosis on stderr" true (contains err "dead"))

let test_attach_bad_flags () =
  let code, _, _ =
    run [ planarmon; "attach"; "x.json"; "--stall-after"; "-1" ]
  in
  check ci "negative --stall-after exits 2" 2 code;
  let code, _, _ = run [ planarmon; "attach"; "x.json"; "--interval"; "0" ] in
  check ci "zero --interval exits 2" 2 code

let test_progress_silent_when_not_tty () =
  (* --progress must auto-disable when stderr is not a tty (it is a
     pipe here), leaving stderr free of control characters. *)
  with_graph (fun g ->
      let code, _, err =
        run
          [
            planartest; "test"; g; "--eps"; "0.3"; "--progress";
            "--log-level"; "warn";
          ]
      in
      check ci "--progress run exits 0" 0 code;
      check cb "no progress bar leaked to piped stderr" false
        (contains err "\r["))

let test_history_ledger_roundtrip () =
  with_finished_heartbeat (fun ~graph:g ~hb:_ ~ledger ->
      (* Second run of the identical configuration: same fingerprint,
         same digest — history groups them and stays green. *)
      let code, _, _ =
        run
          [
            planartest; "test"; g; "--eps"; "0.3"; "--ledger"; ledger;
            "--log-level"; "warn";
          ]
      in
      check ci "second ledger run exits 0" 0 code;
      let code, out, _ = run [ planarmon; "history"; ledger ] in
      check ci "consistent ledger exits 0" 0 code;
      check cb "both runs grouped" true (contains out " 2 ");
      (* Torn final line (crash mid-append): skipped with a warning,
         never fatal. *)
      let lines = slurp ledger in
      write_file ledger (lines ^ {|{"schema":"runs.ledg|});
      let code, _, err = run [ planarmon; "history"; ledger ] in
      check ci "torn line still exits 0" 0 code;
      check cb "torn line counted" true (contains err "skipped 1");
      (* Determinism drift: duplicate a record with a different digest
         under the same fingerprint. *)
      let l = List.hd (String.split_on_char '\n' lines) in
      let forged =
        replace_once l {|"digest":"|} {|"digest":"f0f0|}
      in
      write_file ledger (lines ^ forged ^ "\n");
      let code, out, _ = run [ planarmon; "history"; ledger ] in
      check ci "digest drift exits 1" 1 code;
      check cb "drift flagged in table" true (contains out "DRIFT"))

let test_history_missing_file () =
  let code, _, _ = run [ planarmon; "history"; "/nonexistent/runs.jsonl" ] in
  check ci "missing ledger exits 2" 2 code

let () =
  Alcotest.run "cli"
    [
      ( "planartrace",
        [
          Alcotest.test_case "bad arguments exit 2" `Quick
            test_planartrace_bad_args;
          Alcotest.test_case "corrupt input exits 2" `Quick
            test_planartrace_corrupt_input;
          Alcotest.test_case "--help exits 0" `Quick test_planartrace_help;
        ] );
      ( "planarmon",
        [
          Alcotest.test_case "compare agreement exits 0" `Quick
            test_planarmon_compare_ok;
          Alcotest.test_case "compare mismatch exits 1" `Quick
            test_planarmon_compare_mismatch;
          Alcotest.test_case "compare IO error exits 2" `Quick
            test_planarmon_compare_io_error;
          Alcotest.test_case "bad arguments exit 2" `Quick
            test_planarmon_bad_args;
          Alcotest.test_case "compare skips bench clock fields" `Quick
            test_planarmon_compare_bench_clock_fields;
        ] );
      ( "bench",
        [
          Alcotest.test_case "--json - splits streams" `Quick
            test_bench_stream_split;
          Alcotest.test_case "unknown --only id exits 2" `Quick
            test_bench_rejects_unknown_experiment;
          Alcotest.test_case "unknown --mode exits 2" `Quick
            test_bench_rejects_unknown_mode;
          Alcotest.test_case "--no-timings drops clock and host" `Quick
            test_bench_no_timings_drops_clock_and_host;
          Alcotest.test_case "violated gate exits 1" `Quick
            test_bench_gate_exits_1;
        ] );
      ( "mode",
        [
          Alcotest.test_case "planartest unknown --mode exits 2" `Quick
            test_planartest_rejects_unknown_mode;
          Alcotest.test_case "planartest stats identical across modes" `Quick
            test_planartest_mode_stats_identical;
          Alcotest.test_case "planartest unknown --property exits 2" `Quick
            test_planartest_rejects_unknown_property;
          Alcotest.test_case "planartest --property portfolio runs" `Quick
            test_planartest_property_runs;
          Alcotest.test_case "planartest property stats identical across modes"
            `Quick test_planartest_property_mode_stats_identical;
          Alcotest.test_case "planartest domains 1 vs 4 compare equal" `Quick
            test_planartest_domains_compare;
          Alcotest.test_case "planartest far hub stats identical" `Quick
            test_planartest_hub_stats_identical;
        ] );
      ( "input",
        [
          Alcotest.test_case "planartest malformed graph exits 2" `Quick
            test_planartest_bad_graph_exits_2;
        ] );
      ( "live",
        [
          Alcotest.test_case "attach missing file exits 2" `Quick
            test_attach_missing_file;
          Alcotest.test_case "attach corrupt file exits 2" `Quick
            test_attach_corrupt_file;
          Alcotest.test_case "attach completed 0 / stalled 1" `Quick
            test_attach_completed_and_stalled;
          Alcotest.test_case "attach bad flags exit 2" `Quick
            test_attach_bad_flags;
          Alcotest.test_case "--progress silent when stderr is piped" `Quick
            test_progress_silent_when_not_tty;
          Alcotest.test_case "history groups, skips torn, flags drift" `Quick
            test_history_ledger_roundtrip;
          Alcotest.test_case "history missing ledger exits 2" `Quick
            test_history_missing_file;
        ] );
    ]
