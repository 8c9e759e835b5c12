(** Causal critical-path analysis of traced runs.

    Reconstructs the happens-before DAG of a recorded run from its
    resume events' causal wake slots and walks the unique causal chain
    ending at the run's last step — the chain that {e explains} why the
    run took as many rounds as it did.  Every hop on the chain is one of:

    - a {b deliver} hop: the child step was woken by a frame; its
      nominal cost is one round, and anything beyond ([excess]) is
      wire-latency inflation injected by delay faults;
    - a {b timer} hop: the child step waited out its own park deadline —
      slack rounds during which the path was not message-driven;
    - a {b run stitch}: the child is the first activity of a later
      engine run, causally after the previous run's completion
      (zero rounds unless the earlier run was truncated mid-span).

    Consecutive timer hops of one node are collapsed into a single hop,
    which makes the reported path {e identical} whether the engine
    fast-forwarded quiescent spans or stepped them one by one — the
    fast-forward-off baseline's per-round spin resumes fold into the one
    deadline wait they implement.  Recording is coordinator-serial, so
    the report is also byte-identical across [--domains].

    This module is deliberately independent of the engine: callers
    (in [lib/report] / [bin]) map their trace events into {!event}.
    The analyzer is offline and allocation-relaxed; nothing here runs
    on the recording hot path. *)

(** Why a step's node woke (the trace's wake-cause, decoupled from the
    engine's type).  [Unknown] comes from pre-causal (v1) traces; the
    analyzer then infers a deliver cause when the step's round saw a
    recorded first delivery. *)
type cause = Unknown | Deliver | Deadline

(** Analyzer input, in recorded (chronological) order.  [round] and
    [sent] are absolute simulated rounds. *)
type event =
  | Message of { round : int; sent : int; sender : int; dest : int;
                 edge : int }
      (** a frame delivery (used to attach directed-edge ids to deliver
          hops and to back-fill [Unknown] causes) *)
  | Resume of { round : int; node : int; cause : cause; sender : int;
                sent : int }
      (** a step: [node] ran at [round]; on [Deliver], [sender]/[sent]
          name the causally-first frame it woke on *)
  | Phase of string  (** the current phase label switches *)
  | Run_end of { round : int }
      (** one engine run finished at absolute round [round] *)

type hop_kind = Deliver_hop | Timer_hop | Run_hop

(** One hop of the critical path, parent step to child step.
    [rounds = round - from_round]; for deliver hops [excess] is the
    recorded wire latency beyond the nominal round
    ([delivery - sent - 1]) — the delay-fault inflation.  On a lossy
    ring a deliver hop's [rounds] can exceed [1 + excess]; the
    remainder is a sender-side history hole, counted as slack. *)
type hop = {
  kind : hop_kind;
  from_node : int;
  from_round : int;
  node : int;
  round : int;
  edge : int;  (** directed edge id of a deliver hop, [-1] if unknown *)
  rounds : int;
  excess : int;
  phase : string;  (** phase of the child step *)
}

(** Per-phase decomposition of the path's rounds. *)
type phase_profile = {
  phase : string;
  hops : int;
  deliver_rounds : int;  (** nominal one-round deliver costs *)
  timer_rounds : int;  (** slack: deadline waits on the path *)
  excess_rounds : int;  (** delay-fault inflation on the path *)
}

(** Causal-edge blame: deliver hops of the path grouped by directed
    (src, dst) pair, ranked by rounds (then hops, then (src, dst)). *)
type edge_blame = {
  src : int;
  dst : int;
  edge : int;  (** directed edge id, [-1] if unknown *)
  hops : int;
  rounds : int;
  excess : int;
}

type report = {
  path_rounds : int;  (** total rounds along the path (telescoped) *)
  start_round : int;
  end_round : int;  (** the last step's absolute round *)
  total_rounds : int;  (** rounds covered by the trace's run ends *)
  steps : int;  (** path steps after timer collapsing *)
  deliver_hops : int;
  deliver_rounds : int;
  timer_rounds : int;
  excess_rounds : int;
  stitch_rounds : int;  (** run-stitch rounds (truncated earlier runs) *)
  contracted_rounds : int;
      (** [path_rounds - excess_rounds]: the counterfactual path length
          with injected delays contracted to nominal wire latency —
          exact for delay faults, a lower-bound estimate when drops or
          crashes changed the control flow *)
  lossy : bool;  (** ring overflow or sampling holes may hide parents *)
  phases : phase_profile list;  (** in first-seen order *)
  edges : edge_blame list;  (** blame-ranked, full list *)
  hops : hop list;  (** the path, start to end *)
}

(** [analyze ~n events] reconstructs the DAG and returns the causal
    chain report.  [n] is the node count (per-node state); when [n <= 0]
    it is derived from the events.  [~lossy] marks the report as
    computed over an incomplete ring (the caller knows the recorder's
    overwrite/sampling totals).  An event list with no resumes yields
    an empty report (zero path). *)
val analyze : ?lossy:bool -> n:int -> event list -> report

(** Record the ~stable critpath metric families from a report:
    [critpath_rounds] (total path rounds) and
    [critpath_slack_rounds{phase}] (per-phase timer slack).  No-op when
    metrics are disabled. *)
val record_metrics : report -> unit
