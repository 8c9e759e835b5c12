(** Run-level accounting of one engine run, shared by both executors.

    {!Engine.Make.run} (fibers) and {!Compiled.Make.run} (array passes)
    differ in how a round steps its nodes and delivers its messages, but
    not in what a run counts.  Everything that is executor-independent
    lives here, once:

    - the run's {!Stats.t} record, created with the bandwidth default
      ({!Bits.default_bandwidth}) and announced to the trace
      ({!Trace.set_meta});
    - the close of every stepped round: one {!Telemetry.tick} and one
      {!Trace.round_tick};
    - the fast-forward skip over a provably quiescent span: [rounds],
      [charged_rounds] and [fast_forwarded_rounds] in {!Stats.t},
      {!Telemetry.fast_forward}, {!Trace.fast_forward} and the host-side
      [on_round delta];
    - the round driver: the [max_rounds] cut-off, the skip, [on_round 1]
      after each stepped round, and {!Trace.run_end} on the normal and the
      exception path alike;
    - the run-level [congest_*] {!Obs.Metrics} families, registered here
      and nowhere else, and bumped once per run by {!finish}.

    An executor keeps its event-level trace calls (message, resume, park,
    shard, fault), its delivery and its per-edge charge pass, and writes
    the per-round message, bit and frame totals into {!stats} itself, at
    the same point of the round as before: a node program reading its
    engine's stats mid-round sees the round already opened and its
    deliveries counted.  The simulated clock is [(stats a).rounds]; an
    executor's own round counter follows it. *)

type t

(** [create ~bandwidth ~telemetry ~trace ~on_round ~max_rounds g] starts
    the accounting of one run over [g].  [bandwidth = None] means
    {!Bits.default_bandwidth}[ (Graph.n g)].  Starts the run's wall clock
    when metrics are enabled. *)
val create :
  bandwidth:int option ->
  telemetry:Telemetry.t option ->
  trace:Trace.t option ->
  on_round:(int -> unit) option ->
  max_rounds:int ->
  Graphlib.Graph.t ->
  t

(** The run's simulated record, updated in place. *)
val stats : t -> Stats.t

(** [close_round a ~stepped ~domains ~dropped ~duplicated ~delayed
    ~crashed ~bits ~frames ~messages] closes the round [(stats a).rounds]
    after its step phase: one telemetry tick and one trace round tick
    carrying the round's totals. *)
val close_round :
  t ->
  stepped:int ->
  domains:int ->
  dropped:int ->
  duplicated:int ->
  delayed:int ->
  crashed:int ->
  bits:int ->
  frames:int ->
  messages:int ->
  unit

(** [drive a ~live ~wake ~step] runs rounds while [live ()] holds and
    returns [false] iff [max_rounds] cut the run short.  Before each round
    it skips to just before [wake ()], the earliest round that must be
    simulated (the executor's skip target; [max_int] when no skip is
    possible), clamped to the round budget; then [step ()] simulates one
    round and [on_round 1] follows. *)
val drive :
  t -> live:(unit -> bool) -> wake:(unit -> int) -> step:(unit -> unit) ->
  bool

(** [guard a ~release body] runs [body], then [release ()] and
    {!Trace.run_end} — on an exception too, which is re-raised. *)
val guard : t -> release:(unit -> unit) -> (unit -> 'a) -> 'a

(** [finish a ~mode ~wall ~completed] records the run in the metrics
    registry (when enabled): the run-level counters, the [mode]-labelled
    pair (["fiber"] or ["compiled"]) and the run's wall clock under the
    [wall] label (the requested domain count). *)
val finish : t -> mode:string -> wall:string -> completed:bool -> unit
