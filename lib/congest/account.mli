(** Run-level accounting of one engine run.

    {!Engine.Make.run_kernel} decides how a round steps its nodes and
    delivers its messages; what a run counts lives here, once:

    - the run's {!Stats.t} record, created with the bandwidth default
      ({!Bits.default_bandwidth}) and announced to the trace
      ({!Trace.set_meta});
    - every simulated count.  This module is the only code that adds to
      the [rounds], [charged_rounds], [messages], [total_bits],
      [fast_forwarded_rounds], [dropped], [duplicated], [delayed] and
      [crashed_nodes] of a {!Stats.t} and to a {!Telemetry.t}; each count
      is written into both by the same call.  {!Trace.totals} and
      {!Trace.sim_phases} read the telemetry, and the [congest_*]
      metrics read the stats, so every surface projects one count;
    - the open and close of every stepped round ({!open_round},
      {!close_round}, which also records the trace's [Round] event);
    - the fast-forward skip over a provably quiescent span: [rounds],
      [charged_rounds] and [fast_forwarded_rounds] in {!Stats.t},
      {!Telemetry.fast_forward}, the trace's [Fast_forward] event and
      the host-side [on_round delta];
    - the round driver: the [max_rounds] cut-off, the skip, [on_round 1]
      after each stepped round, and {!Trace.run_end} on the normal and the
      exception path alike;
    - the run-level [congest_*] {!Obs.Metrics} families, registered here
      and nowhere else, and bumped once per run by {!finish} (and by
      {!charge}, which lies outside any run).

    The engine keeps its event-level trace calls (message, resume, park,
    shard, fault), its delivery, and its per-edge charge pass, which
    alone writes [max_edge_bits] and [oversized].  It sums each round's
    messages, bits, frames and fault events into locals and hands them
    to {!close_round}, so mid-round the stats show the round opened but
    not yet its deliveries (node programs have no stats accessor).  The
    simulated clock is [(stats a).rounds]; the engine's own round
    counter follows it. *)

type t

(** [create ~bandwidth ~telemetry ~trace ~on_round ~max_rounds g] starts
    the accounting of one run over [g].  [bandwidth = None] means
    {!Bits.default_bandwidth}[ (Graph.n g)].  The run ticks
    {!Trace.resolve}[ ~telemetry trace].  Starts the run's wall clock
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

(** [open_round a] opens the next round and returns it: the new
    simulated clock [(stats a).rounds]. *)
val open_round : t -> int

(** [close_round a ~stepped ~domains ~dropped ~duplicated ~delayed
    ~crashed ~bits ~frames ~messages] closes the round [(stats a).rounds]
    after its step phase: adds the round's totals ([frames] is its
    charge) to the stats, ticks the telemetry once and records the
    trace's [Round] event. *)
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

(** [crashed a k] counts [k] crash events that took effect inside the
    run's final fast-forwarded span, after its last stepped round, in the
    stats and in the telemetry's open phase — where a round-by-round
    execution counts them in {!close_round}. *)
val crashed : t -> int -> unit

(** [charge ~stats ~telemetry k] adds [k] rounds of a substituted
    subroutine that no engine run simulates (Stage II's oracle
    embedding): to [stats.charged_rounds], to the telemetry's open
    phase's [frames] (and so to the trace projecting it) and to the
    [congest_charged_rounds] metric. *)
val charge : stats:Stats.t -> telemetry:Telemetry.t option -> int -> unit

(** [drive a ~live ~wake ~step] runs rounds while [live ()] holds and
    returns [false] iff [max_rounds] cut the run short.  Before each round
    it skips to just before [wake ()], the earliest round that must be
    simulated (the engine's skip target; [max_int] when no skip is
    possible), clamped to the round budget; then [step ()] simulates one
    round and [on_round 1] follows. *)
val drive :
  t -> live:(unit -> bool) -> wake:(unit -> int) -> step:(unit -> unit) ->
  bool

(** [guard a ~release body] runs [body], then [release ()] and
    {!Trace.run_end} — on an exception too, which is re-raised. *)
val guard : t -> release:(unit -> unit) -> (unit -> 'a) -> 'a

(** [finish a ~domains ~completed] records the run in the metrics
    registry (when enabled): the run-level counters and the run's wall
    clock, labelled with the requested domain count. *)
val finish : t -> domains:int -> completed:bool -> unit
