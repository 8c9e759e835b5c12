(** The complete distributed planarity tester of Theorem 1: Stage I
    (partition, {!Partition.Stage1}) followed by Stage II (per-part testing,
    {!Stage2}), instantiated on the shared {!Harness}.

    Guarantee: if the input graph is planar, every node accepts; if it is
    [eps]-far from planar (more than [eps * m] edge deletions needed), some
    node rejects with probability [1 - 1/poly n].

    The verdict/snapshot/checkpoint types are transparent equations with
    {!Harness} — they are the harness types, re-exported here so callers
    that predate the harness keep working unchanged. *)

type verdict = Harness.verdict =
  | Accept
  | Reject of (int * string) list
  | Degraded of string
      (** an active fault policy (see {!Congest.Faults}) prevented a
          trustworthy verdict: a crash-stopped node, a broken lockstep
          assumption, a corrupted partition state, or rejection evidence
          gathered while faults were interfering.  The one-sided-error
          guarantee is preserved by construction: a planar input under
          faults accepts or degrades — it never flips to [Reject]. *)

(** Which partitioning algorithm feeds Stage II.  [Stage_one] is the
    paper's deterministic Stage I (Theorem 1); [Exponential_shifts] is the
    Section 1.1 alternative (the Elkin–Neiman-style clustering of
    {!Partition.En_partition}), giving [O(log^2 n poly(1/eps))] rounds and
    losing the deterministic completeness of the partition step (the
    planarity verdict stays one-sided either way); [Randomized delta] is
    the Theorem 4 partition (see {!Harness.partition_mode}). *)
type partition_mode = Harness.partition_mode =
  | Stage_one
  | Exponential_shifts
  | Randomized of float

(** A resumable image of a [Stage_one] run, captured at a Stage I phase
    boundary — the only points where every engine pool is quiescent, so
    the whole tester state is the plain data below (no fibers, no
    continuations; all of it marshal-safe).  Stage II is not covered: it
    is a constant number of rounds per part and re-runs from the restored
    partition. *)
type snapshot = Harness.snapshot = {
  ck_phase : int;  (** next Stage I phase to run (1-based) *)
  ck_phases_rev : Partition.Stage1.phase_trace list;
      (** completed phase traces, reverse-chronological (the shape
          {!Partition.Stage1.run}'s [?on_phase]/[?resume] use) *)
  ck_nodes : Partition.State.node array;
  ck_stats : Congest.Stats.t;
  ck_rejections : (int * string) list;
  ck_nominal_rounds : int;
  ck_telemetry : Congest.Telemetry.t option;
      (** the per-round series recorded up to the snapshot (deep copy);
          restored into the resuming run's recorder so the final
          telemetry — and hence the whole stats JSON — matches an
          uninterrupted run *)
  ck_trace : Congest.Trace.t option;
      (** the event-trace state recorded up to the snapshot (deep copy);
          restored into the resuming run's recorder so the resumed
          .ctrace carries the pre-interruption rounds, phase records and
          aggregate totals — [planartrace diff] then matches an
          uninterrupted run (host wall-clock/GC deltas restart at the
          resume point; see {!Congest.Trace.restore_into}) *)
}

(** Checkpoint control, storage-agnostic: the tester calls [load] once at
    startup (a [Some] snapshot resumes the run from that phase boundary;
    [None] starts fresh) and [save] after every [every]-th completed
    phase.  [save] must capture the snapshot before returning — the
    arrays inside are live state the run keeps mutating (the provided
    {!Report.Checkpoint} implementation marshals to disk immediately).
    A run resumed from a snapshot produces byte-identical statistics to
    an uninterrupted run with the same parameters. *)
type checkpoint = Harness.checkpoint = {
  save : snapshot -> unit;
  load : unit -> snapshot option;
  every : int;  (** save every [every]-th completed phase; >= 1 *)
}

type report = {
  verdict : verdict;
  stage1 : Partition.Stage1.result option;
      (** present in [Stage_one] mode *)
  stage2 : Stage2.result option;  (** [None] when Stage I already rejected *)
  rounds : int;  (** simulator rounds over both stages *)
  nominal_rounds : int;  (** the paper's fixed-schedule round count *)
  messages : int;
  total_bits : int;
  fast_forwarded_rounds : int;
      (** of [rounds], how many the engine advanced in O(1) as provably
          quiescent (included in [rounds]; see {!Congest.Engine}) *)
  dropped : int;  (** fault layer: messages destroyed (0 without faults) *)
  duplicated : int;  (** fault layer: extra copies injected *)
  delayed : int;  (** fault layer: messages deferred by >= 1 round *)
  crashed_nodes : int;  (** fault layer: crash events that took effect *)
}

(** [run ?seed ?alpha ?partition g ~eps] executes the tester on the
    simulator.  [seed] drives the randomized steps (Stage II's edge
    sampling, and the partition's own draws in [Exponential_shifts] and
    [Randomized] mode).  [telemetry]
    records per-round series, with one {!Congest.Telemetry} phase per
    Stage I phase plus a ["stage2"] phase.  [trace] records typed
    per-event data (see {!Congest.Trace}) with the same phase labels
    (the [Exponential_shifts] and [Randomized] partitions record as one
    ["partition"] phase).  [measure_diameters] (default
    [false]) fills the exact per-phase part diameters in the Stage I
    trace — a centralized diagnostic the tester itself never consults,
    and an all-pairs-BFS sweep per phase, so it is off unless asked
    for.  [domains] shards every engine run across that many OCaml
    domains; the report is identical for any value (see
    {!Congest.Engine}).  [fast_forward] (default [true]) lets the engine
    skip provably quiescent rounds in O(1); accounting is identical
    either way, so disabling it is only useful to measure the
    optimisation.  [faults] injects a deterministic fault schedule into
    every engine run, the partition's included: the verdict is then
    [Accept], [Degraded] — or [Reject] only when no fault actually fired,
    so the report is identical for any [domains] and [fast_forward]
    setting, faults included.  [mode] is accepted and ignored: every
    kernel runs on the one engine.  [checkpoint] enables phase-boundary
    checkpoint/resume (see {!checkpoint}); it requires the [Stage_one]
    partition and raises [Invalid_argument] with any other.
    Snapshots carry the telemetry series and the event-trace state, so a
    resumed run's stats JSON (verdict, totals and per-round telemetry)
    is byte-identical to an uninterrupted run's, and a resumed run's
    .ctrace aggregates match an uninterrupted run's under [planartrace
    diff] (host wall-clock/GC deltas restart at the resume point).
    [heartbeat] attaches a live {!Obs.Heartbeat.t} (purely host-side —
    see {!Harness.run}; the caller owns the final
    {!Obs.Heartbeat.finish}). *)
val run :
  ?seed:int ->
  ?alpha:int ->
  ?partition:partition_mode ->
  ?embedding:Stage2.embedding_mode ->
  ?measure_diameters:bool ->
  ?telemetry:Congest.Telemetry.t ->
  ?trace:Congest.Trace.t ->
  ?domains:int ->
  ?fast_forward:bool ->
  ?faults:Congest.Faults.policy ->
  ?mode:Congest.Compiled.mode ->
  ?checkpoint:checkpoint ->
  ?heartbeat:Obs.Heartbeat.t ->
  Graphlib.Graph.t ->
  eps:float ->
  report

(** Convenience: [accepts] a graph iff no node rejected. *)
val accepts :
  ?seed:int -> ?partition:partition_mode -> Graphlib.Graph.t -> eps:float ->
  bool
