(** Event-level tracing of engine runs.

    A [Trace.t] attached to {!Engine.Make.run_kernel} records a bounded,
    allocation-light ring buffer of typed events: message send/deliver
    pairs, fault-layer firings, node resume/park transitions, phase and
    span open/close markers, fast-forwarded quiescent spans, and
    domain-shard round boundaries.  Where {!Telemetry} aggregates a
    per-phase series, a trace answers {e which edge} and {e which round}:
    it is the instrument behind the [.ctrace] format, the Perfetto
    export, and the [planartrace] analyzer.

    {1 Time base}

    Event timestamps are {e absolute simulated rounds}: the engine's
    per-run round counter plus the rounds of every earlier run recorded
    into the same trace, so a protocol built from many short engine runs
    (Stage I) gets one continuous timeline.

    {1 Determinism}

    Every simulated-event category (rounds, messages, faults, resume/park,
    phases, spans, fast-forward) is recorded from the serial half of a
    round on the coordinating domain, in the deterministic order the
    engine contract fixes — the simulated event stream is byte-identical
    for every [?domains] count.  Host-side categories (domain-shard
    boundaries, wall-clock/GC phase profiles) measure the actual
    execution and legitimately differ between runs; they are kept in
    separate event kinds and separate aggregates so analyzers can assert
    "simulated accounting identical, host metrics differ"
    ([planartrace diff]).

    {1 Cost}

    Recording is allocation-free in steady state: events are fixed-width
    slots in a preallocated ring (oldest overwritten when full, with the
    overwrite count kept honestly in {!totals}), and per-category
    sampling keeps full-size runs cheap.  A [t] is single-run /
    single-domain state, like {!Telemetry.t}.

    {1 Exact aggregates}

    A trace counts nothing itself.  It is built over the {!Telemetry.t}
    that {!Account} writes every simulated count into, and projects it:
    {!totals}, {!sim_phases} and the [par_rounds]/[stepped]/[max_domains]
    of {!host_phases} are read from that telemetry, so they are exact
    regardless of ring overflow or sampling and agree with the run's
    {!Stats.t} by construction.  The trace keeps only what no other
    recorder has: the ring, the label table, the sampling counts, the
    per-phase [max_stepped] and the wall-clock/GC deltas of each
    phase. *)

type t

type config = {
  capacity : int;  (** ring capacity in events (>= 1) *)
  sample_messages : int;
      (** record every [k]-th message send/deliver pair (1 = all) *)
  sample_fibers : int;
      (** record resume/park for nodes with [id mod k = 0] (1 = all) *)
  sample_spans : int;  (** record every [k]-th {!span} pair (1 = all) *)
}

(** 65536 events, every message, every resume/park, every span. *)
val default_config : config

(** [create tel] starts a trace that projects [tel]: every run that
    records into the trace ticks [tel] (see {!resolve}).  A traced run
    that keeps no per-round series passes
    [Telemetry.create ~series:false ()].  Phases [tel] has already
    closed get a zero host profile (wall clock and GC in
    {!host_phases}). *)
val create : ?config:config -> Telemetry.t -> t

val config : t -> config

(** The telemetry this trace projects. *)
val telemetry : t -> Telemetry.t

(** [resolve ~telemetry trace] is the telemetry a run recording into
    [telemetry] and [trace] ticks: [trace]'s own when traced, else
    [telemetry].  Raises [Invalid_argument] when both are given and
    [telemetry] is not [trace]'s. *)
val resolve : telemetry:Telemetry.t option -> t option -> Telemetry.t option

(** Deep snapshot of everything recorded so far — ring, labels, host
    profiles and a copy of the projected telemetry.  Safe to [Marshal];
    used by [Report.Checkpoint], whose snapshot shares that telemetry
    copy with its own telemetry slot, so it is carried once. *)
val copy : t -> t

(** [restore_into dst ~from] overwrites [dst]'s own state with [from]'s
    (ring, labels, host profiles, base round).  It leaves [dst]'s
    telemetry alone: restoring that telemetry
    ({!Telemetry.restore_into}) restores the trace's simulated view.
    Host-side deltas (wall clock, GC) restart at the restore point —
    they cannot span a process boundary — so only simulated aggregates
    are byte-identical across a kill/resume, which is exactly what
    [planartrace diff] compares. *)
val restore_into : t -> from:t -> unit

(** Kind of fault-layer event (see {!Faults}). *)
type fault_kind =
  | Drop
  | Duplicate
  | Delay  (** [info] = deferral in rounds *)
  | Truncate
  | Crash  (** a crash event took effect at a running node *)
  | Down_drop  (** a message lost because an endpoint was down *)

(** Why a parked node resumed — the causal parent slot of every
    {!Resume} event, recorded by the engine's serial delivery half.
    Constant constructors only, so recording stays allocation-free. *)
type wake_cause =
  | Wake_unknown  (** pre-causal traces (ctrace v1) or unsampled *)
  | Wake_deliver
      (** an inbox arrival; [sender]/[sent] name the earliest frame
          delivered to the node this round *)
  | Wake_deadline  (** the node's own park deadline expired *)

(** Decoded trace event.  [round] is the absolute simulated round. *)
type event =
  | Round of { round : int; bits : int; frames : int; messages : int;
               stepped : int }
      (** one simulated round's accounting (always recorded) *)
  | Message of { round : int; sent : int; sender : int; dest : int;
                 edge : int; bits : int }
      (** a frame sent at round [sent] and delivered at [round];
          [edge] is the directed edge id *)
  | Fault of { round : int; kind : fault_kind; sender : int; dest : int;
               edge : int; info : int }
  | Resume of { round : int; node : int; cause : wake_cause; sender : int;
                sent : int }
      (** a parked node resumed this round; on [Wake_deliver] the
          causally-first frame it woke on was sent by [sender] at
          absolute round [sent] ([-1]/[-1] otherwise) *)
  | Park of { round : int; node : int; wake : int }
      (** a node parked until round [wake] (or an earlier arrival) *)
  | Phase_open of { round : int; label : string }
  | Phase_close of { round : int; label : string }
  | Span_open of { round : int; label : string }
  | Span_close of { round : int; label : string }
  | Fast_forward of { round : int; rounds : int }
      (** [rounds] provably-quiescent rounds skipped starting after
          [round] *)
  | Shard of { round : int; domains : int; max_stepped : int;
               stepped : int }
      (** {b host-side}: the round's stepping was sharded across
          [domains] domains; the most loaded one stepped [max_stepped]
          of the [stepped] nodes *)
  | Run_end of { round : int; rounds : int }
      (** one engine run finished at absolute round [round] after
          [rounds] simulated rounds; the next event's run starts here
          (critpath stitches happens-before chains across it) *)

(** Exact whole-trace counters, immune to ring overflow and sampling: the
    simulated members sum the projected telemetry's phases. *)
type totals = {
  rounds : int;  (** simulated rounds (fast-forwarded spans included) *)
  frames : int;  (** charged frames (= charged rounds) *)
  bits : int;
  messages : int;
  fast_forwarded : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  crashed : int;
  recorded : int;  (** events written to the ring *)
  overwritten : int;  (** of [recorded], how many the ring evicted *)
  sampled_out : int;  (** events skipped by per-category sampling *)
}

(** Exact per-phase simulated accounting (the [planartrace diff]
    anchor): the projected telemetry's phases, empty ones dropped. *)
type sim_phase = {
  label : string;
  rounds : int;
  bits : int;
  frames : int;
  messages : int;
  fast_forwarded : int;
}

(** Host-side profile of one phase: wall-clock and GC deltas between the
    phase's open and close, plus domain-shard load data.  Never mixed
    into simulated accounting. *)
type host_phase = {
  label : string;
  wall_s : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  par_rounds : int;  (** rounds whose stepping was sharded *)
  stepped : int;  (** nodes stepped across the phase *)
  max_stepped : int;
      (** sum over sharded rounds of the most loaded domain's node
          count — [max_stepped * domains / stepped] ~ load imbalance *)
  max_domains : int;
}

(** {1 Recording — engine-side hooks} *)

(** [set_meta t ~n ~m ~bandwidth] records the graph shape and bandwidth;
    first call wins (all runs of one trace share a graph). *)
val set_meta : t -> n:int -> m:int -> bandwidth:int -> unit

(** [(n, m, bandwidth)] when a run has been recorded. *)
val meta : t -> (int * int * int) option

(** [round_tick t ~round ~bits ~frames ~messages ~stepped] records the
    round's {!Round} event; its counts are the ones {!Account} wrote into
    the telemetry in the same round close. *)
val round_tick :
  t -> round:int -> bits:int -> frames:int -> messages:int -> stepped:int ->
  unit

val message :
  t -> round:int -> sent:int -> sender:int -> dest:int -> edge:int ->
  bits:int -> unit

val fault :
  t -> round:int -> kind:fault_kind -> sender:int -> dest:int -> edge:int ->
  info:int -> unit

(** [want_fiber t node] pre-checks the node sampling gate so the engine
    can skip building its resume-candidate scratch for sampled-out
    nodes.  The [fiber] in this and the two names below, and in
    [sample_fibers], dates from when parked nodes were fibers;
    [.ctrace] readers use them. *)
val want_fiber : t -> int -> bool

(** [fiber_resume t ~round ~node ~cause ~sender ~sent] records a resume
    with its causal parent: on {!Wake_deliver}, [sender]/[sent] name the
    earliest-sent frame delivered to [node] this round ([sent] is
    run-relative here; the ring stores it on the absolute timeline).
    Pass [(-1)]/[(-1)] for the other causes. *)
val fiber_resume :
  t -> round:int -> node:int -> cause:wake_cause -> sender:int -> sent:int ->
  unit

val fiber_park : t -> round:int -> node:int -> wake:int -> unit
val shard : t -> round:int -> domains:int -> max_stepped:int -> stepped:int -> unit
val fast_forward : t -> round:int -> rounds:int -> unit

(** [run_end t ~rounds] closes one engine run, recording a {!Run_end}
    event at the run's final absolute round: the next run's round 0 is
    this trace's absolute round [base + rounds]. *)
val run_end : t -> rounds:int -> unit

(** {1 Recording — protocol-side labels} *)

(** [phase t label] closes the current phase (initially an implicit
    ["run"]) and opens a new one: it captures the host wall-clock/GC
    deltas of the telemetry's open phase, then rotates that telemetry's
    phase ({!Telemetry.phase}), so the two stay aligned. *)
val phase : t -> string -> unit

(** [span t label f] wraps [f ()] in a span open/close event pair
    (sampled per {!config.sample_spans}); the span label is interned
    once.  [f]'s result (or exception) passes through. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** [finish t] closes the current phase's host profile; call once after
    the last run.  Idempotent.  The telemetry's open phase stays open. *)
val finish : t -> unit

(** {1 Reading} *)

val totals : t -> totals

(** Chronological; exact even when the ring overflowed. *)
val sim_phases : t -> sim_phase list

(** Chronological, aligned 1:1 with {!sim_phases}.  A phase the
    telemetry closed before this trace saw it (a resume from a checkpoint
    taken untraced) has a zero host profile.  Fails an assertion if the
    telemetry's phase was rotated other than through {!phase}. *)
val host_phases : t -> host_phase list

(** Surviving ring events, oldest first. *)
val iter_events : t -> (event -> unit) -> unit
