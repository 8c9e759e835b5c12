(** Serial compiled execution of lockstep kernels.

    Every protocol of the tester is a {e kernel} ({!step}): a node does
    some work at start-up, parks for a known number of rounds, and is
    re-entered once per delivery or deadline with its inbox.  The
    sharded {!Engine} steps kernels too, with a fault layer and worker
    domains; this module executes them serially as flat array passes
    over the CSR substrate — one pass per simulated round, with a
    due-set scheduler instead of the engine's live worklist.

    {b Cost.}  A round costs O(due nodes + delivered messages), plus
    sorting the due set; once that set holds n/8 nodes or more it is
    listed by one scan over the ids instead (at most 8 ids per due
    node).  A
    parked node waits in a round-indexed deadline bucket (a wheel of
    O(n) slots, with an overflow list for deadlines past its window);
    a delivery marks its receiver due, and the round steps exactly its
    due nodes, in ascending id order.  Nodes that are merely parked are
    never visited, and fast-forward reads its target from the nearest
    non-empty bucket.  A resumed node reads its inbox in place from the
    delivery slab through a cursor ({!NET.inbox}), so delivery and
    reading allocate nothing beyond
    the messages themselves, and [Msg.bits] is taken once for a run of
    physically equal messages (a broadcast, a relayed payload).  All of
    this state lives in the reusable {!Make.pool}.

    {b Byte-identity contract.}  For the same graph and the same
    (deterministic, fault-free) protocol, a compiled run produces
    {!Stats.t} and {!Telemetry} output byte-identical to the {!Engine}
    at the same [fast_forward] setting: the delivery order (ascending
    sender, reverse send order within a sender), the inbox construction,
    bandwidth charging ([max_edge_bits], [oversized], frame counts)
    replicate {!Engine}'s serial half exactly, and round and
    fast-forward accounting, telemetry ticks, the [max_rounds] cut-off
    and the run-level [congest_*] metrics are not replicated at all:
    both executors call the one {!Account}, so a compiled run differs
    from a serial fiber run in no metric family but the mode-labelled
    [congest_mode_runs]/[congest_mode_rounds] pair, and there by the
    label only.  With fast-forward off the engine's
    baseline steps every parked node every round; compiled execution
    still visits only the due nodes but counts every parked one as
    stepped, as that baseline does.  The differential suite in
    [test/test_prop.ml] and the [make compiled] CI leg enforce this.

    Compiled execution is serial by construction (a round is a single
    array pass; there is nothing left to parallelize at the per-round cost
    this module reaches), so telemetry's host-side [max_domains] is 1 —
    exactly what the fiber engine reports at [~domains:1].

    Event tracing ([?trace]) is implemented natively: the array passes
    emit the same message/resume/park/round/fast-forward event stream
    the engine records from its serial half — including the causal wake
    slots — so a compiled [.ctrace] is byte-identical to a serial fiber
    one.  Fault injection is not: the fault layer's draw order is
    defined by the engine's delivery loop, so {!pick} returns [false]
    under faults and callers run the same kernel on the engine instead
    ([Engine.Make.run_kernel]), which starts no fiber for it either. *)

(** Execution-mode knob threaded through [Stage1], [Planarity_tester] and
    the CLIs ([planartest --mode], [bench --mode]).  It picks the executor
    for the lockstep kernels; the kernels themselves are written once (see
    {!step} and {!NET}). *)
type mode =
  | Fiber  (** the sharded {!Engine} (the default) *)
  | Compiled
      (** compiled array passes for every kernel; silently falls back to
          the fiber engine under faults. *)

(** [pick mode ~faults] decides whether a kernel run should take the
    compiled path: exactly when [mode = Compiled] and no fault policy is
    active (tracing is supported natively). *)
val pick : mode -> faults:bool -> bool

val mode_to_string : mode -> string

(** Accepted spellings: ["fiber"], ["compiled"]. *)
val mode_of_string : string -> mode option

(** What a node does next, returned by a kernel's [start] / [resume]
    hooks: [Park k] re-enters the node at the first round with a non-empty
    inbox, or unconditionally after [k] rounds ([k <= 0] means 1); [Halt]
    ends the node.

    A {e kernel} is a lockstep protocol written as such a pair of hooks
    over a {!NET}.  It is written once and runs on either executor:
    {!Make.run} executes it as array passes, and [Engine.Make.run_kernel]
    steps it on the sharded engine. *)
type step = Halt | Park of int

(** The node-side operations a kernel may use, provided by both
    {!Make} and [Engine.Make] with identical directed-edge accounting. *)
module type NET = sig
  type ctx
  type msg

  val send : ctx -> dest:int -> msg -> unit
  val send_port : ctx -> dest:int -> eid:int -> msg -> unit
  val broadcast : ctx -> msg -> unit
  val round : ctx -> int

  (** A cursor over a round's inbox as handed to [resume]: every
      (sender, message) delivered this round, in the fiber engine's
      delivery order (ascending sender, reverse send order within a
      sender).  Only valid until the hook returns.  Walk it in a loop:

      {[
        let cur = ref inbox in
        while not (N.inbox_is_empty !cur) do
          f (N.inbox_sender ctx !cur) (N.inbox_msg ctx !cur);
          cur := N.inbox_next ctx !cur
        done
      ]}

      Reading an inbox this way allocates nothing: on both executors the
      cursor is a slab index. *)
  type inbox

  (** [true] past the last delivery. *)
  val inbox_is_empty : inbox -> bool

  (** The sender and message under a non-empty cursor. *)
  val inbox_sender : ctx -> inbox -> int

  val inbox_msg : ctx -> inbox -> msg

  (** The cursor one delivery further. *)
  val inbox_next : ctx -> inbox -> inbox
end

module type MESSAGE = sig
  type t

  val bits : t -> int
end

module Make (Msg : MESSAGE) : sig
  type msg = Msg.t
  type nonrec step = step = Halt | Park of int

  (** Per-run execution context handed to the hooks; carries the current
      node implicitly, so hooks must only use it synchronously. *)
  type ctx

  (** Preallocated per-graph delivery state, reusable across runs (the
      compiled analogue of [Engine.pool], minus the arenas).  One run
      at a time; a busy pool falls back to fresh allocation. *)
  type pool

  val pool : Graphlib.Graph.t -> pool

  (** Queue a message to a neighbor (binary-search edge lookup, exactly
      like [Engine.send]).  @raise Invalid_argument on a non-neighbor. *)
  val send : ctx -> dest:int -> Msg.t -> unit

  (** [send_port ctx ~dest ~eid msg] queues on a known incident edge id —
      no search; for callers iterating an incidence structure.  The
      directed-edge accounting is identical to {!send}. *)
  val send_port : ctx -> dest:int -> eid:int -> Msg.t -> unit

  (** Broadcast to all neighbors in port (neighbor-ascending) order,
      matching [Engine.broadcast]. *)
  val broadcast : ctx -> Msg.t -> unit

  (** Current round (0 during start-up, [r >= 1] inside round [r]'s
      resume pass) — same clock as [Engine.round]. *)
  val round : ctx -> int

  (** The head of the node's slab chain, linked in delivery order, so
      reading an inbox allocates nothing. *)
  type inbox

  val inbox_is_empty : inbox -> bool
  val inbox_sender : ctx -> inbox -> int
  val inbox_msg : ctx -> inbox -> Msg.t
  val inbox_next : ctx -> inbox -> inbox

  (** A kernel has no [reject] ({!NET}), so a run yields no rejection
      evidence: only its stats and completion. *)
  type result = {
    stats : Stats.t;
    completed : bool;  (** false iff [max_rounds] was exhausted *)
  }

  (** [run g ~start ~resume] drives every node through its [start] hook
      (ascending id order, round 0), then simulates rounds until every
      node has halted: deliveries, bandwidth charging, telemetry ticks,
      fast-forward over quiescent spans and [max_rounds] cut-off all
      follow [Engine.run]'s serial semantics byte-for-byte.  [resume] is
      invoked per due node (ascending) with the round's inbox — empty
      when the park deadline expired with no traffic.  An exception from
      a hook aborts the run after the round's accounting, exactly where
      the fiber engine's propagate mode re-raises.  With [?trace]
      attached, the run records the same event stream (messages with
      causal wake slots, predicted resume/park pairs, round ticks,
      fast-forward spans, run end) the fiber engine would at
      [~domains:1].  Defaults match [Engine.run]: bandwidth
      [Bits.default_bandwidth n], max_rounds 1_000_000, fast-forward
      on. *)
  val run :
    ?bandwidth:int ->
    ?max_rounds:int ->
    ?telemetry:Telemetry.t ->
    ?trace:Trace.t ->
    ?fast_forward:bool ->
    ?on_round:(int -> unit) ->
    ?pool:pool ->
    Graphlib.Graph.t ->
    start:(ctx -> int -> step) ->
    resume:(ctx -> int -> inbox -> step) ->
    result
  (** [?on_round] is the same host-side per-round observer as
      [Engine.run]'s: [f 1] per stepped round, [f delta] per
      fast-forwarded span.  Must not touch simulated state. *)
end
