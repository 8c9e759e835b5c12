(* Golden tests for the machine-readable report schemas.

   The JSON emitted under ["planartest.stats/v1"] and
   ["bench.planarity/v1"] is consumed by external tooling (CI artifact
   diffing, plotting scripts), so the key set, key order and value types
   are a contract: any change here must bump the schema tag. *)

open Graphlib
module J = Report.Json
module PT = Tester.Planarity_tester

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let kt = Alcotest.(list (pair string string))

let tag = function
  | J.Null -> "null"
  | J.Bool _ -> "bool"
  | J.Int _ -> "int"
  | J.Float _ -> "float"
  | J.String _ -> "string"
  | J.List _ -> "list"
  | J.Obj _ -> "obj"

let keys_and_tags = function
  | J.Obj fields -> List.map (fun (k, v) -> (k, tag v)) fields
  | j -> Alcotest.failf "expected an object, got %s" (tag j)

let field j k =
  match j with
  | J.Obj fields -> List.assoc k fields
  | _ -> Alcotest.fail "expected an object"

(* A real report, from an actual tester run. *)
let small_report =
  lazy
    (let g = Generators.apollonian (Random.State.make [| 3 |]) 48 in
     (g, PT.run ~seed:1 g ~eps:0.3))

(* A synthetic rejecting report, so the rejections row schema is pinned
   without hunting for a rejecting input. *)
let rejecting_report =
  {
    PT.verdict = PT.Reject [ (3, "euler bound"); (7, "violations") ];
    stage1 = None;
    stage2 = None;
    rounds = 10;
    nominal_rounds = 12;
    messages = 5;
    total_bits = 40;
    fast_forwarded_rounds = 2;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    crashed_nodes = 0;
  }

let stats_keys =
  [
    ("schema", "string");
    ("graph", "obj");
    ("eps", "float");
    ("seed", "int");
    ("domains", "int");
    ("verdict", "string");
    ("rejections", "list");
    ("rounds", "int");
    ("nominal_rounds", "int");
    ("messages", "int");
    ("total_bits", "int");
    ("fast_forwarded_rounds", "int");
    ("telemetry", "null");
  ]

let test_stats_schema () =
  let g, r = Lazy.force small_report in
  let j =
    Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps:0.3 ~seed:1
      ~domains:1 r
  in
  check kt "key set, order and types" stats_keys (keys_and_tags j);
  check Alcotest.string "schema tag" "planartest.stats/v1"
    (match field j "schema" with J.String s -> s | _ -> "?");
  check kt "graph sub-object" [ ("n", "int"); ("m", "int") ]
    (keys_and_tags (field j "graph"));
  check Alcotest.string "verdict" "accept"
    (match field j "verdict" with J.String s -> s | _ -> "?")

let test_stats_schema_with_telemetry () =
  (* With telemetry attached, the [telemetry] slot becomes an object but
     no key appears or moves. *)
  let tel = Congest.Telemetry.create () in
  let g = Generators.grid 5 5 in
  let r = PT.run ~seed:1 ~telemetry:tel g ~eps:0.3 in
  let j =
    Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps:0.3 ~seed:1
      ~domains:2 ~telemetry:tel r
  in
  let expect =
    List.map
      (fun (k, t) -> if k = "telemetry" then (k, "obj") else (k, t))
      stats_keys
  in
  check kt "same keys, telemetry now an object" expect (keys_and_tags j)

let test_stats_rejections_rows () =
  let j =
    Report.tester_stats ~n:9 ~m:20 ~eps:0.1 ~seed:0 ~domains:1
      rejecting_report
  in
  check Alcotest.string "verdict" "reject"
    (match field j "verdict" with J.String s -> s | _ -> "?");
  match field j "rejections" with
  | J.List rows ->
      check ci "row per distinct rejection" 2 (List.length rows);
      List.iter
        (fun row ->
          check kt "row schema" [ ("node", "int"); ("reason", "string") ]
            (keys_and_tags row))
        rows
  | _ -> Alcotest.fail "rejections must be a list"

(* ------------------------------------------------------------------ *)
(* planartest.stats/v2: v1 plus one "faults" object before "telemetry" *)
(* ------------------------------------------------------------------ *)

let faults_keys =
  [
    ("spec", "string");
    ("seed", "int");
    ("dropped", "int");
    ("duplicated", "int");
    ("delayed", "int");
    ("crashed_nodes", "int");
    ("degraded_reason", "null");
  ]

(* The v2 key list is the v1 list with "faults" spliced in before
   "telemetry" — nothing else moves, so a v1 consumer that ignores
   unknown keys still parses every v1 field of a v2 document. *)
let stats_keys_v2 =
  List.concat_map
    (fun (k, t) ->
      if k = "telemetry" then [ ("faults", "obj"); (k, t) ] else [ (k, t) ])
    stats_keys

let test_stats_schema_v2 () =
  let g, r = Lazy.force small_report in
  let faults = Congest.Faults.make ~seed:7 ~drop:0.05 () in
  let j =
    Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps:0.3 ~seed:1
      ~domains:1 ~faults r
  in
  check kt "v2 = v1 + faults before telemetry" stats_keys_v2 (keys_and_tags j);
  check Alcotest.string "schema tag bumped" "planartest.stats/v2"
    (match field j "schema" with J.String s -> s | _ -> "?");
  check kt "faults sub-object" faults_keys (keys_and_tags (field j "faults"));
  check Alcotest.string "spec round-trips" (Congest.Faults.to_spec faults)
    (match field (field j "faults") "spec" with J.String s -> s | _ -> "?")

let test_stats_schema_v2_degraded () =
  (* A synthetic degraded report pins the third verdict value and the
     degraded_reason string without needing a fault schedule that
     actually bites this particular graph. *)
  let r =
    {
      rejecting_report with
      PT.verdict = PT.Degraded "12 dropped";
      dropped = 12;
    }
  in
  let faults = Congest.Faults.make ~seed:3 ~drop:0.5 () in
  let j = Report.tester_stats ~n:9 ~m:20 ~eps:0.1 ~seed:0 ~domains:2 ~faults r in
  check Alcotest.string "verdict" "degraded"
    (match field j "verdict" with J.String s -> s | _ -> "?");
  (match field j "rejections" with
  | J.List [] -> ()
  | _ -> Alcotest.fail "degraded reports carry no rejection rows");
  let fb = field j "faults" in
  check Alcotest.string "degraded_reason surfaces" "12 dropped"
    (match field fb "degraded_reason" with J.String s -> s | _ -> "?");
  check ci "fault counters surface" 12
    (match field fb "dropped" with J.Int d -> d | _ -> -1);
  check ci "fault seed surfaces" 3
    (match field fb "seed" with J.Int s -> s | _ -> -1)

let test_stats_v1_unchanged_without_faults () =
  (* The exact bytes of a v1 document must be unaffected by this PR:
     omitting [?faults] still emits schema v1 with the v1 key set. *)
  let j =
    Report.tester_stats ~n:9 ~m:20 ~eps:0.1 ~seed:0 ~domains:1
      rejecting_report
  in
  check kt "no faults => v1 key set" stats_keys (keys_and_tags j);
  check Alcotest.string "no faults => v1 tag" "planartest.stats/v1"
    (match field j "schema" with J.String s -> s | _ -> "?")

(* ------------------------------------------------------------------ *)
(* planartest.stats/v3: v2 plus one "host" object before "telemetry"   *)
(* ------------------------------------------------------------------ *)

(* v3 = v2 + "host" before "telemetry"; "faults" may be absent when the
   run had no fault policy, so the splice happens on the v1 list too. *)
let splice_host keys =
  List.concat_map
    (fun (k, t) ->
      if k = "telemetry" then [ ("host", "obj"); (k, t) ] else [ (k, t) ])
    keys

let test_stats_schema_v3 () =
  let g = Generators.grid 5 5 in
  let tr = Congest.Trace.create (Congest.Telemetry.create ~series:false ()) in
  let r = PT.run ~seed:1 ~trace:tr g ~eps:0.3 in
  Congest.Trace.finish tr;
  let j =
    Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps:0.3 ~seed:1
      ~domains:1 ~host:tr r
  in
  check kt "v3 = v1 + host before telemetry" (splice_host stats_keys)
    (keys_and_tags j);
  check Alcotest.string "schema tag bumped" "planartest.stats/v3"
    (match field j "schema" with J.String s -> s | _ -> "?");
  let host = field j "host" in
  check kt "host sub-object" [ ("phases", "list"); ("trace", "obj") ]
    (keys_and_tags host);
  check kt "ring-health sub-object"
    [ ("recorded", "int"); ("overwritten", "int"); ("sampled_out", "int") ]
    (keys_and_tags (field host "trace"));
  (match field host "phases" with
  | J.List (p :: _) ->
      check kt "host phase row schema"
        [
          ("label", "string");
          ("wall_s", "float");
          ("minor_words", "float");
          ("major_words", "float");
          ("minor_collections", "int");
          ("major_collections", "int");
          ("par_rounds", "int");
          ("stepped", "int");
          ("max_stepped", "int");
          ("max_domains", "int");
        ]
        (keys_and_tags p)
  | _ -> Alcotest.fail "a traced run must record at least one host phase");
  (* And with faults too: host still lands between faults and telemetry. *)
  let faults = Congest.Faults.make ~seed:7 ~drop:0.05 () in
  let j2 =
    Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps:0.3 ~seed:1
      ~domains:1 ~faults ~host:tr r
  in
  check kt "v3 over v2 key order" (splice_host stats_keys_v2) (keys_and_tags j2)

let test_stats_v2_unchanged_without_host () =
  (* The exact v1/v2 documents must be unaffected by the tracing PR:
     omitting [?host] keeps the old tag and key set. *)
  let faults = Congest.Faults.make ~seed:7 ~drop:0.05 () in
  let j =
    Report.tester_stats ~n:9 ~m:20 ~eps:0.1 ~seed:0 ~domains:1 ~faults
      rejecting_report
  in
  check kt "no host => v2 key set" stats_keys_v2 (keys_and_tags j);
  check Alcotest.string "no host => v2 tag" "planartest.stats/v2"
    (match field j "schema" with J.String s -> s | _ -> "?")

(* ------------------------------------------------------------------ *)
(* harness_stats: one "property" member after "seed", same tagging     *)
(* ------------------------------------------------------------------ *)

(* A synthetic totals value mirroring [rejecting_report], so the
   harness document shape is pinned without hunting for inputs. *)
let synthetic_totals =
  {
    Tester.Harness.verdict =
      Tester.Harness.Reject [ (3, "odd cycle"); (7, "odd cycle") ];
    stage1 = None;
    rounds = 10;
    nominal_rounds = 12;
    messages = 5;
    total_bits = 40;
    fast_forwarded_rounds = 2;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    crashed_nodes = 0;
  }

(* harness documents = the matching tester_stats key list with one
   "property" member spliced in between "seed" and "domains". *)
let splice_property keys =
  List.concat_map
    (fun (k, t) ->
      if k = "domains" then [ ("property", "string"); (k, t) ] else [ (k, t) ])
    keys

let test_harness_stats_property_member () =
  let j =
    Report.harness_stats ~n:9 ~m:12 ~eps:0.2 ~seed:3 ~domains:1
      ~property:"bipartite" synthetic_totals
  in
  check kt "v1 keys + property after seed" (splice_property stats_keys)
    (keys_and_tags j);
  check Alcotest.string "schema tag stays v1" "planartest.stats/v1"
    (match field j "schema" with J.String s -> s | _ -> "?");
  check Alcotest.string "property value" "bipartite"
    (match field j "property" with J.String s -> s | _ -> "?");
  check Alcotest.string "verdict preserved" "reject"
    (match field j "verdict" with J.String s -> s | _ -> "?")

let test_harness_stats_v2_v3_tagging () =
  (* The v1 -> v2 -> v3 bump rules are the tester_stats ones, property
     member included in all three. *)
  let faults = Congest.Faults.make ~seed:7 ~drop:0.05 () in
  let j2 =
    Report.harness_stats ~n:9 ~m:12 ~eps:0.2 ~seed:3 ~domains:1
      ~property:"cycle-free" ~faults synthetic_totals
  in
  check kt "v2 keys + property" (splice_property stats_keys_v2)
    (keys_and_tags j2);
  check Alcotest.string "v2 tag" "planartest.stats/v2"
    (match field j2 "schema" with J.String s -> s | _ -> "?");
  let g = Generators.grid 5 5 in
  let tr = Congest.Trace.create (Congest.Telemetry.create ~series:false ()) in
  let _, t = Tester.Bipartite_tester.run ~seed:1 ~trace:tr g ~eps:0.3 in
  Congest.Trace.finish tr;
  let j3 =
    Report.harness_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps:0.3 ~seed:1
      ~domains:1 ~property:"bipartite" ~host:tr t
  in
  check kt "v3 keys + property"
    (splice_property (splice_host stats_keys))
    (keys_and_tags j3);
  check Alcotest.string "v3 tag" "planartest.stats/v3"
    (match field j3 "schema" with J.String s -> s | _ -> "?")

let test_planarity_keys_unchanged_by_harness () =
  (* The locked golden: a planarity run through the post-harness
     pipeline still emits the exact pre-harness v1 key set — no
     "property" member sneaks into tester_stats documents. *)
  let g, r = Lazy.force small_report in
  let j =
    Report.tester_stats ~n:(Graph.n g) ~m:(Graph.m g) ~eps:0.3 ~seed:1
      ~domains:1 r
  in
  check cb "no property member" true
    (match j with
    | J.Obj fields -> not (List.mem_assoc "property" fields)
    | _ -> false);
  check kt "v1 key set intact" stats_keys (keys_and_tags j)

(* ------------------------------------------------------------------ *)
(* check_schema: goldens must reject unknown versions loudly           *)
(* ------------------------------------------------------------------ *)

let test_check_schema () =
  let doc tag = J.Obj [ ("schema", J.String tag); ("x", J.Int 1) ] in
  List.iter
    (fun tag ->
      match Report.check_schema (doc tag) with
      | Ok t -> check Alcotest.string "tag echoed" tag t
      | Error e -> Alcotest.failf "known schema %s rejected: %s" tag e)
    Report.known_schemas;
  (* The regression this guards: an unknown version used to fall through
     to the field-by-field golden diff and "pass" whenever the keys
     happened to match.  It must fail, and the message must name both the
     offending tag and the versions this build knows. *)
  (match Report.check_schema (doc "planartest.stats/v99") with
  | Ok _ -> Alcotest.fail "unknown schema version accepted"
  | Error e ->
      check cb "message names the bad tag" true
        (let sub = "planartest.stats/v99" in
         let rec has i =
           i + String.length sub <= String.length e
           && (String.sub e i (String.length sub) = sub || has (i + 1))
         in
         has 0);
      check cb "message lists known versions" true
        (let sub = Report.stats_schema in
         let rec has i =
           i + String.length sub <= String.length e
           && (String.sub e i (String.length sub) = sub || has (i + 1))
         in
         has 0);
      check cb "message lists metrics/v1 too" true
        (let sub = Report.metrics_schema in
         let rec has i =
           i + String.length sub <= String.length e
           && (String.sub e i (String.length sub) = sub || has (i + 1))
         in
         has 0));
  (match Report.check_schema (J.Obj [ ("schema", J.Int 3) ]) with
  | Ok _ -> Alcotest.fail "non-string schema accepted"
  | Error _ -> ());
  (match Report.check_schema (J.Obj [ ("x", J.Int 1) ]) with
  | Ok _ -> Alcotest.fail "missing schema member accepted"
  | Error _ -> ());
  match Report.check_schema (J.List []) with
  | Ok _ -> Alcotest.fail "non-object document accepted"
  | Error _ -> ()

let test_bench_schema () =
  let experiments =
    [ J.Obj [ ("id", J.String "E1"); ("rows", J.List []) ] ]
  in
  let j = Report.bench_envelope ~quick:true ~jobs:2 ~domains:4 experiments in
  check kt "envelope keys and types"
    [
      ("schema", "string");
      ("quick", "bool");
      ("jobs", "int");
      ("domains", "int");
      ("experiments", "list");
    ]
    (keys_and_tags j);
  check Alcotest.string "schema tag" "bench.planarity/v1"
    (match field j "schema" with J.String s -> s | _ -> "?");
  check ci "domains recorded" 4
    (match field j "domains" with J.Int d -> d | _ -> -1)

(* Report.field_class is the one rule bench --no-timings, the bench
   ledger digest and planarmon compare share; this pins the class of
   every key those three consumers have disagreed on. *)
let test_field_class () =
  let show = function
    | Report.Simulated -> "simulated"
    | Report.Clock -> "clock"
    | Report.Host -> "host"
    | Report.Config -> "config"
  in
  List.iter
    (fun (key, expect) ->
      check Alcotest.string key (show expect) (show (Report.field_class key)))
    [
      (* A3 *)
      ("full_no_ff_seconds", Report.Clock);
      ("full_ff_seconds", Report.Clock);
      ("ff_speedup", Report.Host);
      (* P1 *)
      ("host_cores", Report.Host);
      ("baseline_no_ff_seconds", Report.Clock);
      ("seconds", Report.Clock);
      ("speedup_vs_no_ff", Report.Host);
      (* M1: engine arenas are per domain, so these follow --domains *)
      ("wall_seconds", Report.Clock);
      ("node_bytes", Report.Config);
      ("slab_bytes", Report.Config);
      ("bytes_per_node", Report.Config);
      ("edge_bytes", Report.Simulated);
      ("bytes_per_edge", Report.Simulated);
      (* C1 and L1 *)
      ("fiber_seconds", Report.Clock);
      ("fiber_rounds_per_sec", Report.Host);
      ("compiled_rounds_per_sec", Report.Host);
      ("speedup", Report.Host);
      ("overhead_pct", Report.Host);
      ("bare_seconds", Report.Clock);
      ("publishes_per_run", Report.Config);
      (* B, stats/v3, metrics/v1, the envelope *)
      ("ns_per_run", Report.Clock);
      ("host", Report.Host);
      ("wall_s", Report.Clock);
      ("congest_run_wall_us", Report.Clock);
      ("host_workload_wall_s", Report.Clock);
      ("jobs", Report.Config);
      ("domains", Report.Config);
      (* telemetry's shard counters follow --domains *)
      ("parallel_rounds", Report.Config);
      ("max_domains", Report.Config);
      (* simulated accounting *)
      ("rounds", Report.Simulated);
      ("nominal_rounds", Report.Simulated);
      ("messages", Report.Simulated);
      ("total_bits", Report.Simulated);
      ("fast_forwarded_rounds", Report.Simulated);
    ]

let test_keep_fields () =
  let doc =
    J.Obj
      [
        ("rounds", J.Int 5);
        ("host_cores", J.Int 2);
        ( "runs",
          J.List
            [ J.Obj [ ("domains", J.Int 1); ("seconds", J.Float 0.5) ] ] );
      ]
  in
  check Alcotest.string "only simulated members survive"
    {|{"rounds":5,"runs":[{}]}|}
    (J.to_string (Report.keep_fields (( = ) Report.Simulated) doc));
  check Alcotest.string "--no-timings keeps config members"
    {|{"rounds":5,"runs":[{"domains":1}]}|}
    (J.to_string
       (Report.keep_fields
          (function Report.Clock | Report.Host -> false | _ -> true)
          doc))

(* ------------------------------------------------------------------ *)
(* metrics/v1: the Obs.Metrics snapshot document                       *)
(* ------------------------------------------------------------------ *)

(* The key sets below are a contract with [planarmon compare] and any
   external scraper: changing them requires bumping [metrics/v1]. *)
let test_metrics_schema () =
  let module M = Obs.Metrics in
  let r = M.create () in
  M.set_enabled ~registry:r true;
  let c = M.counter ~registry:r ~label_names:[ "verdict" ] "rt_counter" in
  let g = M.gauge ~registry:r ~stable:false "rt_gauge" in
  let h = M.histogram ~registry:r ~buckets:[ 1; 4 ] "rt_hist" in
  M.inc ~labels:[ "accept" ] c;
  M.set g 2.5;
  M.observe h 3;
  let j = Report.metrics_json ~registry:r () in
  check kt "envelope keys and types"
    [ ("schema", "string"); ("metrics", "list") ]
    (keys_and_tags j);
  check Alcotest.string "schema tag" "metrics/v1"
    (match field j "schema" with J.String s -> s | _ -> "?");
  (match Report.check_schema j with
  | Ok t -> check Alcotest.string "check_schema accepts it" "metrics/v1" t
  | Error e -> Alcotest.failf "metrics/v1 rejected by check_schema: %s" e);
  let fams = match field j "metrics" with J.List l -> l | _ -> [] in
  check ci "three families" 3 (List.length fams);
  List.iter
    (fun fam ->
      check kt "family key set"
        [
          ("name", "string");
          ("kind", "string");
          ("help", "string");
          ("stable", "bool");
          ("series", "list");
        ]
        (keys_and_tags fam))
    fams;
  let fam_named n =
    List.find (fun f -> field f "name" = J.String n) fams
  in
  let series f =
    match field f "series" with J.List (s :: _) -> s | _ -> Alcotest.fail "series"
  in
  check kt "counter series row"
    [ ("labels", "obj"); ("value", "int") ]
    (keys_and_tags (series (fam_named "rt_counter")));
  check kt "counter labels"
    [ ("verdict", "string") ]
    (keys_and_tags (field (series (fam_named "rt_counter")) "labels"));
  check kt "gauge series row"
    [ ("labels", "obj"); ("value", "float") ]
    (keys_and_tags (series (fam_named "rt_gauge")));
  check cb "host-side gauge carries stable=false" true
    (field (fam_named "rt_gauge") "stable" = J.Bool false);
  let hrow = series (fam_named "rt_hist") in
  check kt "histogram series row"
    [ ("labels", "obj"); ("buckets", "list"); ("sum", "int"); ("count", "int") ]
    (keys_and_tags hrow);
  (match field hrow "buckets" with
  | J.List buckets ->
      check ci "one row per finite bucket" 2 (List.length buckets);
      List.iter
        (fun b ->
          check kt "bucket row" [ ("le", "int"); ("count", "int") ]
            (keys_and_tags b))
        buckets;
      (* cumulative le semantics: the observation 3 is inside le=4 only *)
      check cb "bucket counts are cumulative" true
        (List.map
           (fun b -> (field b "le", field b "count"))
           buckets
        = [ (J.Int 1, J.Int 0); (J.Int 4, J.Int 1) ])
  | _ -> Alcotest.fail "buckets must be a list");
  check cb "count includes the +Inf bucket" true
    (field hrow "count" = J.Int 1)

(* ------------------------------------------------------------------ *)
(* Report.write: file vs the "-" stdout convention                     *)
(* ------------------------------------------------------------------ *)

let sample = J.Obj [ ("a", J.Int 1); ("b", J.List [ J.Null; J.Bool true ]) ]

let test_write_file () =
  let path = Filename.temp_file "report" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.write path sample;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check cb "file holds the rendering" true
        (String.trim s = J.to_string sample))

let test_write_dash_goes_to_stdout () =
  (* Swap stdout's fd for a temp file around the call; "-" must print the
     document there (and not create a file named "-"). *)
  let path = Filename.temp_file "report" ".out" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let fd =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600
      in
      let saved = Unix.dup Unix.stdout in
      flush stdout;
      Unix.dup2 fd Unix.stdout;
      Unix.close fd;
      Fun.protect
        ~finally:(fun () ->
          flush stdout;
          Unix.dup2 saved Unix.stdout;
          Unix.close saved)
        (fun () ->
          Report.write "-" sample;
          flush stdout);
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.string "stdout got the document, newline-terminated"
        (J.to_string sample ^ "\n")
        s;
      check cb "no file named -" false (Sys.file_exists "-"))

(* ------------------------------------------------------------------ *)
(* Checkpoint container: round trip, atomicity, refusal modes          *)
(* ------------------------------------------------------------------ *)

(* Capture a real snapshot by checkpointing a short Stage I run. *)
let capture_snapshot g ~eps ~seed =
  let store = ref None in
  let ck =
    {
      PT.every = 1;
      load = (fun () -> None);
      save = (fun s -> if !store = None then store := Some s);
    }
  in
  ignore (PT.run ~checkpoint:ck g ~eps ~seed);
  match !store with
  | Some s -> s
  | None -> Alcotest.fail "run produced no checkpoint"

let with_temp f =
  let path = Filename.temp_file "ck" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_file_roundtrip () =
  let g = Generators.grid 16 16 in
  let eps = 0.1 and seed = 7 in
  let snap = capture_snapshot g ~eps ~seed in
  let fp =
    Report.Checkpoint.fingerprint g ~eps ~seed ~alpha:3 ~faults:None
  in
  with_temp (fun path ->
      Sys.remove path;
      check cb "missing file loads as None" true
        (Report.Checkpoint.load path ~fingerprint:fp = None);
      Report.Checkpoint.save path ~fingerprint:fp snap;
      match Report.Checkpoint.load path ~fingerprint:fp with
      | None -> Alcotest.fail "saved checkpoint did not load"
      | Some s ->
          check ci "phase preserved" snap.PT.ck_phase s.PT.ck_phase;
          check ci "nominal rounds preserved" snap.PT.ck_nominal_rounds
            s.PT.ck_nominal_rounds;
          check ci "stats rounds preserved"
            snap.PT.ck_stats.Congest.Stats.rounds
            s.PT.ck_stats.Congest.Stats.rounds;
          check cb "nodes deep-copied, equal content" true
            (snap.PT.ck_nodes = s.PT.ck_nodes
            && not (snap.PT.ck_nodes == s.PT.ck_nodes)))

let test_checkpoint_file_refusals () =
  let g = Generators.grid 16 16 in
  let eps = 0.1 and seed = 7 in
  let snap = capture_snapshot g ~eps ~seed in
  let fp =
    Report.Checkpoint.fingerprint g ~eps ~seed ~alpha:3 ~faults:None
  in
  let fails f = match f () with
    | exception Failure _ -> true
    | _ -> false
  in
  with_temp (fun path ->
      Report.Checkpoint.save path ~fingerprint:fp snap;
      (* Fingerprint mismatch: other eps, other graph, other faults. *)
      let fp_eps =
        Report.Checkpoint.fingerprint g ~eps:0.2 ~seed ~alpha:3 ~faults:None
      in
      check cb "eps mismatch refused" true
        (fails (fun () -> Report.Checkpoint.load path ~fingerprint:fp_eps));
      let faults = Some (Congest.Faults.make ~drop:0.1 ()) in
      let fp_faults =
        Report.Checkpoint.fingerprint g ~eps ~seed ~alpha:3 ~faults
      in
      check cb "faults mismatch refused" true
        (fails (fun () -> Report.Checkpoint.load path ~fingerprint:fp_faults));
      (* Corruption: flip a byte in the body. *)
      let ic = open_in_bin path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let bad = Bytes.of_string raw in
      let i = Bytes.length bad - 5 in
      Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc bad;
      close_out oc;
      check cb "checksum failure refused" true
        (fails (fun () -> Report.Checkpoint.load path ~fingerprint:fp));
      (* An intact file of the previous layout: its snapshot type differs,
         so the version in the magic must refuse it before unmarshalling. *)
      let old = Bytes.of_string raw in
      Bytes.blit_string "PLNRCK02" 0 old 0 8;
      let oc = open_out_bin path in
      output_bytes oc old;
      close_out oc;
      check cb "previous format version refused" true
        (fails (fun () -> Report.Checkpoint.load path ~fingerprint:fp));
      (* Not a checkpoint at all. *)
      let oc = open_out_bin path in
      output_string oc "not a checkpoint";
      close_out oc;
      check cb "bad magic refused" true
        (fails (fun () -> Report.Checkpoint.load path ~fingerprint:fp));
      (* Truncated below the header. *)
      let oc = open_out_bin path in
      output_string oc "PLNR";
      close_out oc;
      check cb "truncated refused" true
        (fails (fun () -> Report.Checkpoint.load path ~fingerprint:fp)))

(* ------------------------------------------------------------------ *)
(* heartbeat/v1: the live status document                              *)
(* ------------------------------------------------------------------ *)

(* [planarmon attach] and any supervisor tailing the status file parse
   these keys; the set and order are locked like the stats schemas. *)
let heartbeat_keys ~verdict ~checkpoint ~metrics =
  [
    ("schema", "string");
    ("seq", "int");
    ("state", "string");
    ("verdict", verdict);
    ("run_id", "string");
    ("fingerprint", "string");
    ("property", "string");
    ("phase", "string");
    ("phases_done", "int");
    ("phases_total", "int");
    ("rounds", "int");
    ("charged_rounds", "int");
    ("messages", "int");
    ("total_bits", "int");
    ("checkpoint", checkpoint);
    ("wall_s", "float");
    ("gc", "obj");
    ("metrics", metrics);
  ]

let parse_file path =
  match Report.Json_parse.of_file path with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s" path e

let test_heartbeat_schema () =
  let path = Filename.temp_file "hb" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let hb =
        Obs.Heartbeat.create ~path ~run_id:"r1" ~fingerprint:"fp"
          ~property:"planarity" ()
      in
      Obs.Heartbeat.attach hb
        ~sample:(fun () ->
          {
            Obs.Heartbeat.rounds = 7;
            charged_rounds = 9;
            messages = 11;
            total_bits = 13;
            phases_done = 2;
            phases_total = 5;
          });
      Obs.Heartbeat.publish hb;
      let j = parse_file path in
      check kt "running key set (verdict/checkpoint null, metrics off)"
        (heartbeat_keys ~verdict:"null" ~checkpoint:"null" ~metrics:"null")
        (keys_and_tags j);
      (match Report.check_schema j with
      | Ok t -> check Alcotest.string "check_schema accepts it" "heartbeat/v1" t
      | Error e -> Alcotest.failf "heartbeat/v1 rejected by check_schema: %s" e);
      check kt "gc sub-object"
        [
          ("minor_words", "float");
          ("major_collections", "int");
          ("heap_words", "int");
        ]
        (keys_and_tags (field j "gc"));
      check cb "state running" true (field j "state" = J.String "running");
      check ci "sampled rounds" 7
        (match field j "rounds" with J.Int r -> r | _ -> -1);
      (* Finishing republishes in place: verdict and checkpoint become
         strings, nothing else about the shape moves. *)
      Obs.Heartbeat.set_checkpoint hb "run.ck";
      Obs.Heartbeat.finish hb ~verdict:"accept";
      let j = parse_file path in
      check kt "done key set"
        (heartbeat_keys ~verdict:"string" ~checkpoint:"string" ~metrics:"null")
        (keys_and_tags j);
      check cb "state done" true (field j "state" = J.String "done");
      check cb "verdict recorded" true (field j "verdict" = J.String "accept");
      check ci "seq advanced" 2
        (match field j "seq" with J.Int s -> s | _ -> -1);
      (* finish is terminal: further publishes must not resurrect it. *)
      Obs.Heartbeat.publish hb;
      let j = parse_file path in
      check ci "seq frozen after finish" 2
        (match field j "seq" with J.Int s -> s | _ -> -1))

let test_heartbeat_metrics_projection () =
  (* With the global registry enabled the [metrics] member is the flat
     stable projection: counters by name, histograms flattened to
     _sum/_count, each entry {name, value}. *)
  let module M = Obs.Metrics in
  let path = Filename.temp_file "hb" ".json" in
  Fun.protect
    ~finally:(fun () ->
      M.set_enabled false;
      M.reset ();
      Sys.remove path)
    (fun () ->
      M.set_enabled true;
      M.reset ();
      let c = M.counter "hb_test_counter" in
      M.inc ~by:3 c;
      let hb =
        Obs.Heartbeat.create ~path ~run_id:"r2" ~fingerprint:"fp"
          ~property:"planarity" ()
      in
      Obs.Heartbeat.publish hb;
      let j = parse_file path in
      match field j "metrics" with
      | J.List entries ->
          check cb "projection non-empty" true (entries <> []);
          List.iter
            (fun e ->
              match keys_and_tags e with
              | [ ("name", "string"); ("value", ("int" | "float")) ] -> ()
              | other ->
                  Alcotest.failf "unexpected entry shape: %s"
                    (String.concat ";"
                       (List.map (fun (k, t) -> k ^ ":" ^ t) other)))
            entries;
          check cb "our counter present" true
            (List.exists
               (fun e -> field e "name" = J.String "hb_test_counter")
               entries)
      | other -> Alcotest.failf "metrics is %s, expected list" (tag other))

(* ------------------------------------------------------------------ *)
(* runs.ledger/v1: the provenance ledger record                        *)
(* ------------------------------------------------------------------ *)

let sample_record =
  {
    Report.Ledger.ts = 1700000000.5;
    tool = "planartest";
    run_id = "planartest:g.txt:seed=0";
    fingerprint = "graph=abc eps=0x1p-3 seed=0 alpha=3 faults=none";
    property = "planarity";
    config = [ ("eps", "0.2"); ("seed", "0") ];
    verdict = "accept";
    digest = "d41d8cd98f00b204e9800998ecf8427e";
    rounds = 10;
    nominal_rounds = 12;
    messages = 5;
    total_bits = 40;
    wall_s = 0.25;
    host = "testhost";
  }

let test_ledger_schema () =
  let j = Report.Ledger.to_json sample_record in
  check kt "record key set, order and types"
    [
      ("schema", "string");
      ("ts", "float");
      ("tool", "string");
      ("run_id", "string");
      ("fingerprint", "string");
      ("property", "string");
      ("config", "obj");
      ("verdict", "string");
      ("digest", "string");
      ("rounds", "int");
      ("nominal_rounds", "int");
      ("messages", "int");
      ("total_bits", "int");
      ("wall_s", "float");
      ("host", "string");
    ]
    (keys_and_tags j);
  (match Report.check_schema j with
  | Ok t -> check Alcotest.string "check_schema accepts it" "runs.ledger/v1" t
  | Error e -> Alcotest.failf "runs.ledger/v1 rejected by check_schema: %s" e);
  (match Report.Ledger.of_json j with
  | Ok r -> check cb "of_json round-trips to_json" true (r = sample_record)
  | Error e -> Alcotest.failf "of_json rejects its own to_json: %s" e);
  (* The digest is a pure function of the simulated outcome. *)
  let d ~rounds =
    Report.Ledger.digest_core ~property:"planarity" ~verdict:"accept" ~rounds
      ~nominal_rounds:12 ~messages:5 ~total_bits:40 ~fast_forwarded_rounds:2
      ~dropped:0 ~duplicated:0 ~delayed:0 ~crashed_nodes:0
  in
  check Alcotest.string "digest_core deterministic" (d ~rounds:10)
    (d ~rounds:10);
  check cb "digest_core sensitive to the core" true
    (d ~rounds:10 <> d ~rounds:11)

let test_ledger_append_load_torn () =
  let path = Filename.temp_file "runs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.Ledger.append ~path sample_record;
      Report.Ledger.append ~path { sample_record with rounds = 11 };
      let records, skipped = Report.Ledger.load path in
      check ci "two records back" 2 (List.length records);
      check ci "nothing skipped" 0 skipped;
      check cb "order preserved" true
        ((List.nth records 1).Report.Ledger.rounds = 11);
      (* A crash mid-append tears at most the final line; the reader
         skips and counts it without losing the earlier records. *)
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 path
      in
      output_string oc {|{"schema":"runs.ledg|};
      close_out oc;
      let records, skipped = Report.Ledger.load path in
      check ci "intact records survive the torn tail" 2 (List.length records);
      check ci "torn line counted" 1 skipped;
      (* Wrong-schema lines are skipped the same way. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\n{\"schema\":\"metrics/v1\"}\n";
      close_out oc;
      let records, skipped = Report.Ledger.load path in
      check ci "still two records" 2 (List.length records);
      check ci "two lines skipped now" 2 skipped;
      (* Missing file is empty, not an error. *)
      let records, skipped = Report.Ledger.load "/nonexistent/runs.jsonl" in
      check ci "missing file: no records" 0 (List.length records);
      check ci "missing file: no skips" 0 skipped)

let () =
  Alcotest.run "report"
    [
      ( "schema",
        [
          Alcotest.test_case "planartest.stats/v1" `Quick test_stats_schema;
          Alcotest.test_case "stats with telemetry" `Quick
            test_stats_schema_with_telemetry;
          Alcotest.test_case "rejection rows" `Quick
            test_stats_rejections_rows;
          Alcotest.test_case "planartest.stats/v2" `Quick test_stats_schema_v2;
          Alcotest.test_case "v2 degraded verdict" `Quick
            test_stats_schema_v2_degraded;
          Alcotest.test_case "v1 unchanged without faults" `Quick
            test_stats_v1_unchanged_without_faults;
          Alcotest.test_case "planartest.stats/v3" `Quick test_stats_schema_v3;
          Alcotest.test_case "harness_stats property member" `Quick
            test_harness_stats_property_member;
          Alcotest.test_case "harness_stats v2/v3 tagging" `Quick
            test_harness_stats_v2_v3_tagging;
          Alcotest.test_case "planarity keys unchanged by harness" `Quick
            test_planarity_keys_unchanged_by_harness;
          Alcotest.test_case "v2 unchanged without host" `Quick
            test_stats_v2_unchanged_without_host;
          Alcotest.test_case "check_schema rejects unknown versions" `Quick
            test_check_schema;
          Alcotest.test_case "bench.planarity/v1" `Quick test_bench_schema;
          Alcotest.test_case "field classes" `Quick test_field_class;
          Alcotest.test_case "keep_fields projection" `Quick test_keep_fields;
          Alcotest.test_case "metrics/v1" `Quick test_metrics_schema;
          Alcotest.test_case "heartbeat/v1" `Quick test_heartbeat_schema;
          Alcotest.test_case "heartbeat metrics projection" `Quick
            test_heartbeat_metrics_projection;
          Alcotest.test_case "runs.ledger/v1" `Quick test_ledger_schema;
          Alcotest.test_case "ledger append/load and torn tail" `Quick
            test_ledger_append_load_torn;
        ] );
      ( "write",
        [
          Alcotest.test_case "to file" `Quick test_write_file;
          Alcotest.test_case "dash writes stdout" `Quick
            test_write_dash_goes_to_stdout;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "file round trip" `Quick
            test_checkpoint_file_roundtrip;
          Alcotest.test_case "refusal modes" `Quick
            test_checkpoint_file_refusals;
        ] );
    ]
