(** Machine-readable JSON reports shared by [planartest] and [bench].

    Both tools emit versioned envelopes — {!stats_schema} for a single
    tester run, {!bench_schema} for a benchmark sweep — that downstream
    tooling parses; the schema test suite locks the key sets and value
    types, so widen them here (and bump the version on breaking changes)
    rather than inline in the binaries. *)

module Json = Congest.Telemetry.Json

(** Strict RFC 8259 parser for the documents this module emits. *)
module Json_parse = Json_parse

(** Binary [.ctrace] serialization of {!Congest.Trace} recordings. *)
module Ctrace = Ctrace

(** Chrome/Perfetto [trace_event] JSON export of a {!Ctrace.view}. *)
module Perfetto = Perfetto

(** Versioned binary checkpoint files for the tester (atomic saves,
    checksummed, parameter-fingerprinted loads). *)
module Checkpoint = Checkpoint

(** Causal critical-path analysis of a {!Ctrace.view} and the
    [critpath/v1] JSON document. *)
module Critpath_report = Critpath_report

(** Append-only provenance ledger of completed runs
    ([runs.ledger/v1] JSONL records, crash-safe appends). *)
module Ledger = Ledger

(** ["planartest.stats/v1"] *)
val stats_schema : string

(** ["planartest.stats/v2"] *)
val stats_schema_v2 : string

(** ["planartest.stats/v3"] *)
val stats_schema_v3 : string

(** ["bench.planarity/v1"] *)
val bench_schema : string

(** ["metrics/v1"] *)
val metrics_schema : string

(** ["critpath/v1"] *)
val critpath_schema : string

(** ["heartbeat/v1"] (emitted by {!Obs.Heartbeat}; registered here so
    {!check_schema} recognizes status files). *)
val heartbeat_schema : string

(** ["runs.ledger/v1"] *)
val ledger_schema : string

(** Every schema tag this build can emit or validate. *)
val known_schemas : string list

(** [check_schema j] validates a document's ["schema"] member against
    {!known_schemas}: [Ok tag] when recognized, [Error reason] when the
    member is missing, not a string, or an unknown version.  Golden
    comparisons must call this before comparing key sets, so a document
    from a newer (or corrupted) producer fails loudly instead of being
    silently diffed field-by-field. *)
val check_schema : Json.t -> (string, string) result

(** [tester_stats ~n ~m ~eps ~seed ~domains ?telemetry ?faults report] is
    the stats document for one tester run.  The ["telemetry"] member is
    [null] when no telemetry was recorded.

    {b v1 → v2 compatibility.}  Without [?faults] the emitted document is
    the unchanged [planartest.stats/v1] — same keys, same order, same
    types, two-value ["verdict"] ([accept] / [reject]).  With [?faults]
    the schema tag becomes [planartest.stats/v2], which is v1 plus one
    additional ["faults"] object (keys [spec], [seed], [dropped],
    [duplicated], [delayed], [crashed_nodes], [degraded_reason]) inserted
    before ["telemetry"], and the ["verdict"] member may additionally be
    ["degraded"] (in which case ["rejections"] is empty and
    [faults.degraded_reason] is a string instead of [null]).  A v1
    consumer that ignores unknown keys reads every v1 field of a v2
    document unchanged.

    {b v2 → v3.}  With [?host] (a finished {!Congest.Trace.t}) the schema
    tag becomes [planartest.stats/v3]: v2 plus one ["host"] object
    (per-phase wall-clock/GC/shard profiles under [phases], ring health
    under [trace]) inserted before ["telemetry"].  Host profiling data
    never contaminates the simulated accounting fields; with [?host]
    omitted the v1/v2 output is byte-identical to earlier builds. *)
val tester_stats :
  n:int ->
  m:int ->
  eps:float ->
  seed:int ->
  domains:int ->
  ?telemetry:Congest.Telemetry.t ->
  ?faults:Congest.Faults.policy ->
  ?host:Congest.Trace.t ->
  Tester.Planarity_tester.report ->
  Json.t

(** [harness_stats ~property totals] is the same stats document built
    from a {!Tester.Harness.totals} (any harness-based tester), plus one
    ["property"] string member inserted after ["seed"].  The v1/v2/v3
    tagging rules are identical to {!tester_stats}; planarity runs keep
    using {!tester_stats} so their documents stay byte-identical to
    pre-harness builds, while a consumer that ignores unknown keys reads
    both document shapes interchangeably. *)
val harness_stats :
  n:int ->
  m:int ->
  eps:float ->
  seed:int ->
  domains:int ->
  property:string ->
  ?telemetry:Congest.Telemetry.t ->
  ?faults:Congest.Faults.policy ->
  ?host:Congest.Trace.t ->
  Tester.Harness.totals ->
  Json.t

(** [bench_envelope ~quick ~jobs ~domains experiments] is the
    [bench.planarity/v1] document; [experiments] are the per-experiment
    objects ([{"id", "title", "claim", "data"}]). *)
val bench_envelope : quick:bool -> jobs:int -> domains:int -> Json.t list -> Json.t

(** What a member of a report measures, decided by its key alone.  This
    is the one rule for which numbers are simulated, shared by
    [bench --no-timings] (drops [Clock] and [Host] members), the bench
    ledger digest (keeps only [Simulated] members) and
    [planarmon compare] (matches [Simulated] leaves exactly, gates
    [Clock] leaves by threshold, skips every other leaf under a [Host]
    or [Config] member). *)
type field_class =
  | Simulated  (** a pure function of the simulated run *)
  | Clock  (** a wall-clock duration: seconds, [wall], [ns_per_run] *)
  | Host
      (** varies with the machine but is not a duration: the core count,
          the [host] profiling block, and rates or ratios of durations
          ([per_sec], [speedup], [overhead]) *)
  | Config
      (** fixed by the invocation's knobs rather than by the simulated
          run: [jobs], [domains], the shard counters telemetry keeps per
          phase ([parallel_rounds], [max_domains], which follow
          [--domains]), the engine bytes that grow with [--domains]
          ([node_bytes], [slab_bytes], [bytes_per_node]) and the
          heartbeat publication count, which follows its cadence *)

val field_class : string -> field_class

(** [keep_fields keep j] drops, at every depth of [j], each object
    member whose key's {!field_class} fails [keep]. *)
val keep_fields : (field_class -> bool) -> Json.t -> Json.t

(** [metrics_json ()] is the ["metrics/v1"] snapshot of an
    {!Obs.Metrics} registry (default: the process-wide one): families
    sorted by name, series by label values, histogram buckets carrying
    cumulative counts with ["count"] including the implicit [+Inf]
    bucket.  With [~stable_only:true] only simulated-deterministic
    families are emitted — that projection is byte-identical across
    [?domains] and fast-forward. *)
val metrics_json :
  ?stable_only:bool -> ?registry:Obs.Metrics.t -> unit -> Json.t

(** [write path j] writes [j] plus a trailing newline to [path], or to
    stdout when [path] is ["-"]. *)
val write : string -> Json.t -> unit

(** [write_atomic path contents] atomically replaces [path] via
    temp file + rename ({!Obs.Fsatomic.write}) — the one publication
    path for whole documents a concurrent reader may be tailing
    ([planarmon watch --out], checkpoints, the heartbeat). *)
val write_atomic : string -> string -> unit

(** {!write_atomic} of [Json.to_string j ^ "\n"]. *)
val write_atomic_json : string -> Json.t -> unit
