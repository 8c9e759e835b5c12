module Json = Congest.Telemetry.Json
module Json_parse = Json_parse
module Ctrace = Ctrace
module Perfetto = Perfetto
module Checkpoint = Checkpoint
module Critpath_report = Critpath_report
module Ledger = Ledger
module PT = Tester.Planarity_tester

let stats_schema = "planartest.stats/v1"
let stats_schema_v2 = "planartest.stats/v2"
let stats_schema_v3 = "planartest.stats/v3"
let bench_schema = "bench.planarity/v1"
let metrics_schema = "metrics/v1"
let critpath_schema = Critpath_report.schema
let heartbeat_schema = Obs.Heartbeat.schema
let ledger_schema = Ledger.schema

let known_schemas =
  [ stats_schema; stats_schema_v2; stats_schema_v3; bench_schema;
    metrics_schema; critpath_schema; heartbeat_schema; ledger_schema ]

let check_schema j =
  match j with
  | Json.Obj members -> (
      match List.assoc_opt "schema" members with
      | Some (Json.String s) when List.mem s known_schemas -> Ok s
      | Some (Json.String s) ->
          Error
            (Printf.sprintf
               "unknown schema version %S (this build knows: %s)" s
               (String.concat ", " known_schemas))
      | Some _ -> Error "\"schema\" member is not a string"
      | None -> Error "document has no \"schema\" member")
  | _ -> Error "document is not a JSON object"

let host_block (tr : Congest.Trace.t) =
  let tot = Congest.Trace.totals tr in
  let phase_json (p : Congest.Trace.host_phase) =
    Json.Obj
      [
        ("label", Json.String p.Congest.Trace.label);
        ("wall_s", Json.Float p.Congest.Trace.wall_s);
        ("minor_words", Json.Float p.Congest.Trace.minor_words);
        ("major_words", Json.Float p.Congest.Trace.major_words);
        ("minor_collections", Json.Int p.Congest.Trace.minor_collections);
        ("major_collections", Json.Int p.Congest.Trace.major_collections);
        ("par_rounds", Json.Int p.Congest.Trace.par_rounds);
        ("stepped", Json.Int p.Congest.Trace.stepped);
        ("max_stepped", Json.Int p.Congest.Trace.max_stepped);
        ("max_domains", Json.Int p.Congest.Trace.max_domains);
      ]
  in
  Json.Obj
    [
      ( "phases",
        Json.List (List.map phase_json (Congest.Trace.host_phases tr)) );
      ( "trace",
        Json.Obj
          [
            ("recorded", Json.Int tot.Congest.Trace.recorded);
            ("overwritten", Json.Int tot.Congest.Trace.overwritten);
            ("sampled_out", Json.Int tot.Congest.Trace.sampled_out);
          ] );
    ]

(* Shared emitter behind [tester_stats] and [harness_stats].  [property]
   is [None] for planarity documents — their key set is a locked golden
   contract, byte-identical to pre-harness builds — and [Some name] for
   the newer testers, which add the one ["property"] member after
   ["seed"] (a v1 consumer that ignores unknown keys is unaffected). *)
let stats_doc ~n ~m ~eps ~seed ~domains ?property ?telemetry ?faults ?host
    ~verdict:(v : Tester.Harness.verdict) ~rounds ~nominal_rounds ~messages
    ~total_bits ~fast_forwarded_rounds ~dropped ~duplicated ~delayed
    ~crashed_nodes () =
  let verdict, rejections, degraded_reason =
    match v with
    | Tester.Harness.Accept -> ("accept", [], None)
    | Tester.Harness.Reject l -> ("reject", l, None)
    | Tester.Harness.Degraded msg -> ("degraded", [], Some msg)
  in
  (* v1, byte-compatible with the pre-faults emitter, is produced whenever
     no fault policy is supplied.  A [Degraded] verdict can only arise
     under a policy, so v1 documents keep their two-value verdict.  The
     host profiling block bumps to v3; with profiling off the v1/v2
     output is byte-identical to earlier builds. *)
  let property_slot =
    match property with
    | None -> []
    | Some p -> [ ("property", Json.String p) ]
  in
  let base =
    [
      ( "schema",
        Json.String
          (match (host, faults) with
          | Some _, _ -> stats_schema_v3
          | None, None -> stats_schema
          | None, Some _ -> stats_schema_v2) );
      ("graph", Json.Obj [ ("n", Json.Int n); ("m", Json.Int m) ]);
      ("eps", Json.Float eps);
      ("seed", Json.Int seed);
    ]
    @ property_slot
    @ [
        ("domains", Json.Int domains);
        ("verdict", Json.String verdict);
        ( "rejections",
          Json.List
            (List.map
               (fun (node, reason) ->
                 Json.Obj
                   [ ("node", Json.Int node); ("reason", Json.String reason) ])
               rejections) );
        ("rounds", Json.Int rounds);
        ("nominal_rounds", Json.Int nominal_rounds);
        ("messages", Json.Int messages);
        ("total_bits", Json.Int total_bits);
        ("fast_forwarded_rounds", Json.Int fast_forwarded_rounds);
      ]
  in
  let faults_block =
    match faults with
    | None -> []
    | Some p ->
        [
          ( "faults",
            Json.Obj
              [
                ("spec", Json.String (Congest.Faults.to_spec p));
                ("seed", Json.Int p.Congest.Faults.seed);
                ("dropped", Json.Int dropped);
                ("duplicated", Json.Int duplicated);
                ("delayed", Json.Int delayed);
                ("crashed_nodes", Json.Int crashed_nodes);
                ( "degraded_reason",
                  match degraded_reason with
                  | Some msg -> Json.String msg
                  | None -> Json.Null );
              ] );
        ]
  in
  let host_slot =
    match host with None -> [] | Some tr -> [ ("host", host_block tr) ]
  in
  let telemetry_slot =
    [
      ( "telemetry",
        match telemetry with
        | Some tel -> Congest.Telemetry.to_json tel
        | None -> Json.Null );
    ]
  in
  Json.Obj (base @ faults_block @ host_slot @ telemetry_slot)

let tester_stats ~n ~m ~eps ~seed ~domains ?telemetry ?faults ?host
    (r : PT.report) =
  stats_doc ~n ~m ~eps ~seed ~domains ?telemetry ?faults ?host
    ~verdict:r.PT.verdict ~rounds:r.PT.rounds
    ~nominal_rounds:r.PT.nominal_rounds ~messages:r.PT.messages
    ~total_bits:r.PT.total_bits
    ~fast_forwarded_rounds:r.PT.fast_forwarded_rounds ~dropped:r.PT.dropped
    ~duplicated:r.PT.duplicated ~delayed:r.PT.delayed
    ~crashed_nodes:r.PT.crashed_nodes ()

let harness_stats ~n ~m ~eps ~seed ~domains ~property ?telemetry ?faults ?host
    (t : Tester.Harness.totals) =
  stats_doc ~n ~m ~eps ~seed ~domains ~property ?telemetry ?faults ?host
    ~verdict:t.Tester.Harness.verdict ~rounds:t.Tester.Harness.rounds
    ~nominal_rounds:t.Tester.Harness.nominal_rounds
    ~messages:t.Tester.Harness.messages
    ~total_bits:t.Tester.Harness.total_bits
    ~fast_forwarded_rounds:t.Tester.Harness.fast_forwarded_rounds
    ~dropped:t.Tester.Harness.dropped
    ~duplicated:t.Tester.Harness.duplicated
    ~delayed:t.Tester.Harness.delayed
    ~crashed_nodes:t.Tester.Harness.crashed_nodes ()

let bench_envelope ~quick ~jobs ~domains experiments =
  Json.Obj
    [
      ("schema", Json.String bench_schema);
      ("quick", Json.Bool quick);
      ("jobs", Json.Int jobs);
      ("domains", Json.Int domains);
      ("experiments", Json.List experiments);
    ]

type field_class = Simulated | Clock | Host | Config

let field_class key =
  let has sub =
    let n = String.length key and m = String.length sub in
    let rec at i = i + m <= n && (String.sub key i m = sub || at (i + 1)) in
    at 0
  in
  if key = "host" || has "host_cores" || has "per_sec" || has "speedup"
     || has "overhead"
  then Host
  else if has "seconds" || has "wall" || has "ns_per_run" then Clock
  else if
    List.mem key
      [ "jobs"; "domains"; "parallel_rounds"; "max_domains"; "node_bytes";
        "slab_bytes"; "bytes_per_node"; "publishes_per_run" ]
  then Config
  else Simulated

let rec keep_fields keep = function
  | Json.Obj members ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if keep (field_class k) then Some (k, keep_fields keep v)
             else None)
           members)
  | Json.List xs -> Json.List (List.map (keep_fields keep) xs)
  | j -> j

(* [metrics/v1]: the {!Obs.Metrics} snapshot as a stable JSON document.
   Families arrive sorted by name and series by label values (the
   registry guarantees it), so two snapshots of identical simulated
   behaviour render byte-identically.  Histogram buckets carry
   *cumulative* counts, mirroring OpenMetrics [le] semantics; ["count"]
   includes the implicit [+Inf] bucket. *)
let metrics_json ?stable_only ?registry () =
  let module M = Obs.Metrics in
  let series_json (s : M.series) =
    let labels =
      Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.M.labels)
    in
    match s.M.value with
    | M.Counter_v v -> Json.Obj [ ("labels", labels); ("value", Json.Int v) ]
    | M.Gauge_v v -> Json.Obj [ ("labels", labels); ("value", Json.Float v) ]
    | M.Histogram_v h ->
        Json.Obj
          [
            ("labels", labels);
            ( "buckets",
              Json.List
                (List.init (Array.length h.M.le) (fun i ->
                     Json.Obj
                       [
                         ("le", Json.Int h.M.le.(i));
                         ("count", Json.Int h.M.cumulative.(i));
                       ])) );
            ("sum", Json.Int h.M.sum);
            ("count", Json.Int h.M.total);
          ]
  in
  let family_json (fam : M.family) =
    Json.Obj
      [
        ("name", Json.String fam.M.name);
        ( "kind",
          Json.String
            (match fam.M.kind with
            | M.Counter_k -> "counter"
            | M.Gauge_k -> "gauge"
            | M.Histogram_k -> "histogram") );
        ("help", Json.String fam.M.help);
        ("stable", Json.Bool fam.M.stable);
        ("series", Json.List (List.map series_json fam.M.series));
      ]
  in
  Json.Obj
    [
      ("schema", Json.String metrics_schema);
      ( "metrics",
        Json.List (List.map family_json (M.snapshot ?stable_only ?registry ()))
      );
    ]

let write path j =
  if path = "-" then begin
    print_string (Json.to_string j);
    print_newline ()
  end
  else Json.write_file path j

(* The one atomic-publication path for whole documents a concurrent
   reader may be tailing (planarmon watch --out, checkpoints via
   [Checkpoint.save], the heartbeat inside obs itself).  Delegates to
   [Obs.Fsatomic] — the implementation lives in obs because obs cannot
   depend on report. *)
let write_atomic path contents = Obs.Fsatomic.write path contents

let write_atomic_json path j = write_atomic path (Json.to_string j ^ "\n")
