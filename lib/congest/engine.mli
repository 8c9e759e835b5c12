(** Round-synchronous CONGEST simulator: the one executor of protocols.

    Every protocol is a {e kernel} ({!Compiled.step}): a pair of hooks,
    [start] at every node in round 0, then [resume] with the node's inbox
    at each arrival or deadline, run by {!Make.run_kernel} on the
    stepping domain's own stack.  A parked node is a deadline, nothing
    more.  All nodes run in lockstep: a round steps every due node once,
    and the messages it sent reach its neighbors' next step.

    Bandwidth is accounted per directed edge per round.  Rather than
    fragmenting payloads, the engine charges a round in which some edge
    carried [k] frames as [k] rounds in {!Stats.t.charged_rounds} — the cost
    an actual CONGEST execution would pay by pipelining.

    {b Cost.}  A round costs O(due nodes + delivered messages), plus
    sorting the due set.  A parked node waits in a round-indexed
    deadline wheel (O(n) slots, with an overflow list for deadlines past
    its window); a delivery marks its receiver due, and the round steps
    exactly its due nodes, in ascending id order — once the due set
    holds n/8 nodes or more it is listed by one scan over the ids
    instead of a sort.  Nodes that are merely parked are never visited,
    and fast-forward reads its target from the nearest non-empty slot.
    Bit totals live in a per-directed-edge counter array reset by
    re-scanning the round's send entries, a resumed node reads its inbox
    in place from the delivery slab through a cursor, and [Msg.bits] is
    taken once for a run of physically equal messages (a broadcast, a
    relayed payload), so delivery allocates nothing beyond the messages
    themselves.  All of this state lives in the reusable {!Make.pool}.

    {1 Concurrency and determinism}

    With [run_kernel ~domains:d] (d > 1), the stepping half of each round
    is sharded across [d] OCaml domains; delivery, bandwidth charging,
    the wheel and all bookkeeping stay on the calling domain.  The
    contract:

    - {b Sharding.}  The ascending due set is cut into [d] contiguous
      blocks; domain [i] steps block [i] in ascending id order.  Rounds
      with fewer due nodes than a small threshold are stepped by the
      calling domain alone (same code path, one block).  The calling
      domain takes the due nodes off the wheel before the phase and
      re-parks them after the barrier, so no worker touches the wheel.
    - {b Arenas.}  Any state a kernel hook can mutate that is not indexed
      by its own node id — the active-senders worklist and queued sends,
      an escaping exception — is written to the stepping domain's private
      arena, through the arena's one shared ctx.  State indexed by node id
      (inboxes, deadlines, a kernel's per-node state) has a single writer
      per round because blocks are disjoint.  The engine keeps no other
      per-node state: a protocol that needs randomness derives it from
      its own seed and the node id.
    - {b Barrier merge.}  After all blocks finish, the calling domain
      merges arenas in index order 0..d-1.  Because blocks are contiguous
      ascending id ranges, concatenating the arenas' sender lists yields
      the exact globally-ascending sender order of the serial engine, so
      inbox contents, per-edge bit totals, frame charges and the choice
      of which exception propagates (the lowest failing node id) are all
      {e byte-identical for every d}, including [d = 1].  Only
      wall-clock time and the telemetry utilization fields
      ([parallel_rounds], [max_domains]) depend on [d].
    - {b Synchronization.}  One mutex/condition barrier per phase; its
      acquire/release pairs carry every cross-domain happens-before edge.
      Kernel hooks never need locks and must not touch shared mutable
      state other than through this module's API.
    - {b Worker team.}  Worker domains are spawned once per process (on
      the first sharded round) and reused by every subsequent run —
      protocols built from thousands of short runs never pay a
      spawn/join per run.  A single run drives the team at a time; a
      concurrent run that finds the team busy steps serially, which by
      the merge argument above changes nothing observable.  A run that
      needs fewer workers than the team holds joins the surplus first
      (idle domains would still stall every stop-the-world collection),
      so a serial run after a wide one leaves no worker alive.

    {b Fast-forward.}  When a round ends with no frame in flight (no node
    queued a send) and every live node is parked on a deadline strictly
    in the future, the intervening rounds are provably empty: nothing to
    deliver, one frame charged, nobody resumed.
    [run_kernel ~fast_forward:true] (the default) advances [rounds],
    [charged_rounds] and the round counter over that span in O(1) instead
    of simulating it, records the span in
    {!Stats.t.fast_forwarded_rounds}, and emits the same per-round
    telemetry the stepped rounds would have produced.  The round in which
    the earliest deadline expires, a delayed frame lands or a live node
    crashes is always simulated normally, so nominal and charged
    accounting are unchanged.  With fast-forward off every round is
    simulated, and every live node counts as stepped in each — the
    legacy baseline, which resumed every parked node every round.

    {b Run accounting.}  What a run counts is not this module's: the
    {!Stats.t} record, the per-round telemetry tick and trace round
    tick, the fast-forward skip, the [max_rounds] round driver, the
    trace's run end and the run-level [congest_*] metrics all live in
    {!Account}.  This module keeps the stepping, delivery, per-edge
    bandwidth charging and the event-level trace records (messages,
    faults, resume/park, shards).

    {b Fault injection.}  [run_kernel ?faults] consults a
    {!Faults.policy} at delivery time — the serial, deterministically
    ordered half of a round — to drop, duplicate, delay or truncate
    individual messages and to crash-stop / crash-recover nodes at
    scheduled rounds.  Because every decision is a pure function of
    [(policy, directed edge, round, per-edge message index)], the
    injected schedule inherits the full determinism contract:
    byte-identical [Stats] / [Telemetry] for every [?domains] count and
    for [fast_forward] on/off.  A node that goes down leaves the wheel's
    deadline order at the first round it is down: a crash-stopped node
    is culled at once, and a crash-recovering one waits for its recovery
    round.  Protocols observe faults only as silence (lost or late
    messages, unresponsive neighbors), which is the CONGEST-faithful
    model; every fault is charged in {!Stats.t.dropped} / [duplicated] /
    [delayed] / [crashed_nodes].  Two visible semantic changes under an
    active policy: an inbox is no longer guaranteed sorted by sender (a
    delayed message arrives before the round's fresh ones), and a run
    containing a crash-stopped node returns [completed = false]. *)

module type MESSAGE = sig
  type t

  (** Size of the message on the wire, in bits. *)
  val bits : t -> int
end

module Make (Msg : MESSAGE) : sig
  type msg = Msg.t

  type ctx
  (** A kernel hook's handle for sending and reading its inbox.  Hooks
      share their arena's ctx, re-pointed at each node, so a hook must
      use it synchronously.  A hook receives its node id as an argument
      and reads the graph directly. *)

  (** [send ctx ~dest msg] queues [msg] on the edge to neighbor [dest] for
      delivery at the end of the current round.  Raises [Invalid_argument]
      if [dest] is not a neighbor. *)
  val send : ctx -> dest:int -> Msg.t -> unit

  (** [send_port ctx ~dest ~eid msg] queues on a known incident edge id —
      no search.  The directed-edge accounting is identical to {!send}. *)
  val send_port : ctx -> dest:int -> eid:int -> Msg.t -> unit

  (** [broadcast ctx msg] sends [msg] to every neighbor. *)
  val broadcast : ctx -> Msg.t -> unit

  (** A kernel's inbox cursor: a slab index into the round's deliveries,
      chained in delivery order (see {!Compiled.NET.inbox}). *)
  type inbox

  val inbox_is_empty : inbox -> bool
  val inbox_sender : ctx -> inbox -> int
  val inbox_msg : ctx -> inbox -> Msg.t
  val inbox_next : ctx -> inbox -> inbox

  (** Current round number (starts at 0, increments each round). *)
  val round : ctx -> int

  type result = {
    stats : Stats.t;
    completed : bool;
        (** all nodes ran to completion (false when [max_rounds] hit or a
            node crash-stopped) *)
  }

  type pool
  (** Preallocated delivery and scheduling state (message buffers,
      per-edge bit counters, the deadline wheel) for one graph, reusable
      across {!run_kernel} calls so protocols
      built from many short runs avoid the O(n + m) per-run allocation
      bill.  A pool is single-domain and serves one run at a time; passing
      a busy pool (nested run) or one built for a different graph value
      makes {!run_kernel} fall back to fresh allocation. *)

  (** [pool g] preallocates run state for [g].  Also publishes the
      [congest_graph_*_bytes] / [congest_pool_*_bytes] gauges read by the
      M1 memory gate. *)
  val pool : Graphlib.Graph.t -> pool

  (** Analytic resident cost of a pool, in bytes, split the way the M1
      memory experiment reports it: [node_bytes] covers the
      vertex-indexed arrays (the wheel's slots included), [edge_bytes] the edge-indexed arrays (16
      bytes/edge fault-free; twice that once a faulted run has sized the
      per-edge fault index), and [slab_bytes] the growable message slabs,
      whose capacity tracks the peak per-round traffic rather than n or
      m.  Slot bytes only — message payloads are shared values and not
      counted. *)
  type footprint = { node_bytes : int; edge_bytes : int; slab_bytes : int }

  val footprint : pool -> footprint

  (** Worker domains the process-wide team holds right now (see
      {e Worker team} above): [0] before the first sharded round, and
      again after a serial run. *)
  val team_size : unit -> int

  (** [run_kernel g ~start ~resume] runs a {!Compiled.step} kernel:
      [start ctx v] at every node in round 0 (ascending ids), then
      [resume ctx v inbox] at each round in which [v] is due — a
      non-empty inbox, or the deadline of its last [Park k] ([k <= 0]
      means one round) — until every node halts.  Hooks run on the
      stepping domain's own stack.  A hook exception aborts the run
      after the round's accounting: the exception of the lowest failing
      node id is re-raised, for any [?domains] count.

      @param bandwidth per-edge per-round bit budget
             (default {!Bits.default_bandwidth}).  Traffic over it is
             charged extra rounds, never rejected.
      @param max_rounds safety limit; exceeding it stops the run with
             [completed = false].  Fast-forwarded spans are capped so the
             run stops at exactly [max_rounds] simulated rounds.
      @param telemetry when given, {!Account} records one
             {!Telemetry.tick} per simulated round (bits, frames,
             messages, nodes stepped, domains used); fast-forwarded
             rounds are recorded through {!Telemetry.fast_forward}.  A
             traced run ticks its trace's telemetry
             ({!Trace.resolve}): pass that one, or none.
      @param trace when given, typed per-event records (message
             deliveries, fault firings, resume/park, fast-forward
             spans, per-round accounting, domain-shard boundaries) are
             appended to the {!Trace.t} ring.  Simulated-event categories
             are recorded from the serial half of a round in deterministic
             order — byte-identical for every [?domains] count; host-side
             categories (shard boundaries) reflect the actual execution.
             Resume/park events are predicted on the coordinating
             domain from the same predicate the stepper uses, so they
             too are domain-count invariant.  The trace's exact
             totals are those of the telemetry it is built over; with the
             argument omitted the engine's hot path pays a single branch
             per event site.
      @param domains shard node stepping across this many OCaml domains
             (default 1 = serial).  All accounting is byte-identical for
             every value — see {e Concurrency and determinism} above.
             Worker domains come from a process-wide team spawned lazily
             on the first round large enough to shard; the team is
             shared across runs (one run drives it at a time, concurrent
             runs step serially) and joined at process exit.
      @param fast_forward advance provably-quiescent round spans in O(1)
             (default [true]).  [false] is the measurement baseline: every
             round is simulated and every live node counts as stepped in
             it (hooks still run only on an arrival or at the deadline),
             reproducing the pre-optimisation engine.  Accounting is
             identical either way; only
             {!Stats.t.fast_forwarded_rounds} records that the shortcut
             was taken.
      @param faults inject deterministic message/node faults drawn from
             the policy's splittable PRNG (default: none).  See
             {e Fault injection} in the module preamble.  Passing
             {!Faults.none} is byte-identical to omitting the argument.
      @param on_round host-side observer called on the coordinator after
             each completed round — [f 1] per stepped round, [f delta]
             after a fast-forwarded quiescent span of [delta] rounds.
             Runs strictly between rounds (quiescent state) and must not
             touch simulated state; with a pure observer the simulated
             stream is byte-identical with or without the hook.  Drives
             {!Obs.Heartbeat}.
      @param pool reuse preallocated delivery state (must come from
             [pool g] on the same graph value). *)
  val run_kernel :
    ?bandwidth:int ->
    ?max_rounds:int ->
    ?telemetry:Telemetry.t ->
    ?trace:Trace.t ->
    ?domains:int ->
    ?fast_forward:bool ->
    ?faults:Faults.policy ->
    ?on_round:(int -> unit) ->
    ?pool:pool ->
    Graphlib.Graph.t ->
    start:(ctx -> int -> Compiled.step) ->
    resume:(ctx -> int -> inbox -> Compiled.step) ->
    result
end
