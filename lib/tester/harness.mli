(** Reusable property-tester harness.

    Every tester in this library follows the same two-stage recipe from
    the paper: Stage I partitions the graph into low-diameter parts with
    few cut edges (rejecting on the way if the auxiliary-graph arboricity
    exceeds [alpha]), then a property-specific Stage II checks each part
    locally.  This module owns everything that is common to the recipe —
    the choice of partition (Stage I with checkpoint/resume, or one of
    the two alternatives of {!partition_mode}) and the wiring of the
    run's engine settings into it, the Accept / Reject /
    Degraded verdict plumbing with its one-sided-error guarantee under
    faults, the eps-rescaling clamp, and the Stats / Telemetry / metrics
    wiring — so a concrete tester ({!Planarity_tester},
    {!Bipartite_tester}, {!Cycle_free_tester}) is just a Stage II
    callback plus a report type.

    The harness preserves the engine contract: for a fixed
    (graph, seed, eps, faults), the verdict and every accounting total in
    {!totals} are byte-identical across [?domains] and [?fast_forward] —
    instantiations must keep their Stage II deterministic in the same
    sense (all the {!Partition.Prims} primitives are). *)

(** Tester verdict.  [Reject] carries per-node evidence as
    [(node, reason)] pairs, sorted and deduplicated.  [Degraded] is the
    honest third verdict under fault injection: evidence was found, or
    the run was damaged, while faults were actively firing, so neither
    Accept nor Reject would be trustworthy.  On a fault-free run the
    verdict is always [Accept] or [Reject], and on an input that has the
    property it is never [Reject] (one-sided error). *)
type verdict =
  | Accept
  | Reject of (int * string) list
  | Degraded of string

(** How to obtain the partition for Stage II.

    [Stage_one] is the paper's deterministic Stage I.
    [Exponential_shifts] is the exponential-shifts clustering
    ({!Partition.En_partition}) used as a baseline.  [Randomized delta]
    is the Theorem 4 randomized partition for minor-free graphs
    ({!Partition.Random_partition}) with confidence [delta], run at
    {!effective_eps}: it reaches the [eps * m] cut target with
    probability [1 - delta], so on an [eps]-far minor-free input Stage II
    rejects with that probability (Corollary 16); one-sided error is
    unaffected.  Both alternatives run their rounds on the same state
    and engine settings as Stage II; neither exposes phase boundaries,
    so checkpointing requires [Stage_one]. *)
type partition_mode = Stage_one | Exponential_shifts | Randomized of float

(** A resumable snapshot of Stage I at a phase boundary.  Contains only
    marshal-safe data (no closures); see {!Report.Checkpoint}
    for the on-disk format. *)
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
          checkpointed run had a telemetry recorder attached (a traced
          run always has: its trace's) *)
  ck_trace : Congest.Trace.t option;
      (** event-trace state recorded up to the snapshot, when the
          checkpointed run had a trace recorder attached; its telemetry
          is [ck_telemetry], physically *)
}

(** Checkpoint hooks: [save] is called after every [every]-th completed
    Stage I phase; [load] is consulted once at the start of the run and
    resumes from the returned snapshot if any.  Only valid with
    [Stage_one]; [run] raises [Invalid_argument] otherwise, or if
    [every < 1]. *)
type checkpoint = {
  save : snapshot -> unit;
  load : unit -> snapshot option;
  every : int;
}

(** Accounting totals for a complete run, identical in meaning to the
    fields of {!Congest.Stats.t} plus the verdict and the Stage I result
    ([None] unless the partition was [Stage_one]).  [nominal_rounds] is
    the CONGEST-model round count (what the paper bounds);  [rounds] is
    the rounds actually simulated (smaller when fast-forward skips
    quiescent rounds). *)
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

(** [effective_eps g ~eps] is the eps handed to the [Randomized]
    partition: the edge budget [eps * m] (every property on the harness
    counts distance in edge edits) rescaled into Random_partition's
    vertex units, [eps * m / n], then clamped into [\[1/n, 0.999\]] so
    the cut-edge target [eps' * n] never rounds below one edge and never
    reaches the degenerate 1.0.  On an empty graph [eps] is returned
    unchanged.  Invariant (exposed for boundary tests): for n ≥ 1,
    [effective_eps g ~eps *. float n >= 1.0] up to floating-point
    rounding of [1/n]. *)
val effective_eps : Graphlib.Graph.t -> eps:float -> float

(** [run ~property ~stage2 g ~eps] executes the two-stage recipe and
    returns [(stage2_result, totals)].

    [stage2 st ~eps ~seed] is the property-specific per-part check; it
    runs only when Stage I neither rejected nor degraded, receives the
    final partition state, and communicates violations by pushing
    [(node, reason)] pairs into [st.rejections].  Its return value is
    surfaced as [fst (run ...)] — [None] when Stage II was skipped or
    was interrupted by faults.  [property] is a short name ("planarity",
    "bipartite", …) used in error messages and by callers for report
    labeling; it does not influence execution.

    All other parameters are shared knobs with the same defaults and
    byte-identical-accounting guarantees as {!Partition.Stage1.run}:
    [seed] (default 0; Stage II randomness and the randomness of the
    [Exponential_shifts] and [Randomized] partitions), [alpha] (default
    3; the [Randomized] partition's promised arboricity too),
    [partition] (default [Stage_one]),
    [measure_diameters], [telemetry], [trace], [domains] (default 1),
    [fast_forward] (default [true]), [faults], [checkpoint].  [mode] is
    accepted and ignored: there is one executor.  A traced run ticks the
    telemetry its trace projects ({!Congest.Trace.resolve}): pass that
    one as [telemetry], or none.

    [heartbeat]: attach an {!Obs.Heartbeat.t} to the run.  The harness
    connects its sample source to the partition state's accumulated
    stats and phase progress ([phases_total] counts the Stage I phase
    budget plus one for Stage II, or two for the other partitions: one
    partition run plus Stage II), ticks it from the engine's quiescent
    round boundaries, and force-publishes at every phase boundary.
    Entirely host-side: the simulated stream — verdict, stats,
    telemetry, trace, stable metrics — is byte-identical with or
    without it.  The caller owns the final {!Obs.Heartbeat.finish}.

    Verdict semantics: Stage I or Stage II rejection evidence yields
    [Reject] on a fault-free run; under an active fault policy that
    actually fired, evidence yields [Degraded] instead (one-sided error
    is preserved — property-holding inputs never Reject), as does a
    corrupted partition state, a [Congest.Faults.Degraded] escape from
    the partition or Stage II, or any other exception escaping them while
    faults are active. *)
val run :
  ?seed:int ->
  ?alpha:int ->
  ?partition:partition_mode ->
  ?measure_diameters:bool ->
  ?telemetry:Congest.Telemetry.t ->
  ?trace:Congest.Trace.t ->
  ?domains:int ->
  ?fast_forward:bool ->
  ?faults:Congest.Faults.policy ->
  ?mode:Congest.Compiled.mode ->
  ?checkpoint:checkpoint ->
  ?heartbeat:Obs.Heartbeat.t ->
  property:string ->
  stage2:(Partition.State.t -> eps:float -> seed:int -> 'a) ->
  Graphlib.Graph.t ->
  eps:float ->
  'a option * totals
