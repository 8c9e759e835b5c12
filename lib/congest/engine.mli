(** Round-synchronous CONGEST simulator.

    The engine steps {e kernels} ({!Compiled.step}): [start] at every node
    in round 0, then [resume] with the node's inbox at each arrival or
    deadline, run by {!Make.run_kernel} on the stepping domain's own stack.
    A parked node is a deadline, not a continuation.  General node
    programs, ordinary OCaml functions in direct style, run through
    {!Make.run}, an effect adapter that is itself a kernel: each program
    gets a fiber, which {!Make.wait} suspends until the node's next step.
    All nodes run in lockstep: a round steps every due node once, and the
    messages it sent reach its neighbors' next step.

    Bandwidth is accounted per directed edge per round.  Rather than
    fragmenting payloads, the engine charges a round in which some edge
    carried [k] frames as [k] rounds in {!Stats.t.charged_rounds} — the cost
    an actual CONGEST execution would pay by pipelining.

    The delivery path is allocation-free in steady state: bit totals live
    in a preallocated per-directed-edge counter array (reset through a
    touched-edge worklist), messages move through per-node buffers reused
    across rounds, and the engine keeps worklists of live nodes and active
    senders so a round costs O(live nodes + messages), not O(n).

    {1 Concurrency and determinism}

    With [run ~domains:d] (d > 1), the stepping half of each round is
    sharded across [d] OCaml domains; delivery, bandwidth charging and all
    bookkeeping stay on the calling domain.  The contract:

    - {b Sharding.}  The node-id-sorted live worklist is cut into [d]
      contiguous blocks; domain [i] steps block [i] in ascending id order.
      Rounds with fewer live nodes than a small threshold are stepped by
      the calling domain alone (same code path, one block).
    - {b Arenas.}  Any state a kernel hook can mutate that is not indexed
      by its own node id — the active-senders worklist and queued sends,
      an escaping exception — is written to the stepping domain's private
      arena, through the arena's one shared ctx.  State indexed by node id
      (inboxes, wake rounds, a kernel's per-node state, a node program's
      continuation and output) has a single writer per round because
      blocks are disjoint.  The engine keeps no other per-node state: a
      protocol that needs randomness derives it from its own seed and the
      node id.
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
      Kernel hooks and node programs never need locks and must not touch
      shared mutable state other than through this module's API.
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
    queued a send) and every live node is parked on a wake round strictly
    in the future, the intervening rounds are provably empty: nothing to
    deliver, one frame charged, nobody resumed.
    [run ~fast_forward:true] (the default) advances [rounds],
    [charged_rounds] and the round counter over that span in O(1) instead
    of simulating it, records the span in
    {!Stats.t.fast_forwarded_rounds}, and emits the same per-round
    telemetry the stepped rounds would have produced.  The round in which
    the earliest waiter expires is always simulated normally, so nominal
    and charged accounting are unchanged.

    {b Run accounting.}  What a run counts is not this module's: the
    {!Stats.t} record, the per-round telemetry tick and trace round
    tick, the fast-forward skip, the [max_rounds] round driver, the
    trace's run end and the run-level [congest_*] metrics all live in
    {!Account}, which {!Compiled} shares.  This module keeps the
    stepping, delivery, per-edge bandwidth charging and the event-level
    trace records (messages, faults, resume/park, shards).

    {b Fault injection.}  [run ?faults] consults a {!Faults.policy} at
    delivery time — the serial, deterministically ordered half of a round
    — to drop, duplicate, delay or truncate individual messages and to
    crash-stop / crash-recover nodes at scheduled rounds.  Because every
    decision is a pure function of [(policy, directed edge, round,
    per-edge message index)], the injected schedule inherits the full
    determinism contract: byte-identical [Stats] / [Telemetry] / outputs
    for every [?domains] count and for [fast_forward] on/off.  Protocols
    observe faults only as silence (lost or late messages, unresponsive
    neighbors), which is the CONGEST-faithful model; every fault is
    charged in {!Stats.t.dropped} / [duplicated] / [delayed] /
    [crashed_nodes].  Two visible semantic changes under an active
    policy: an inbox is no longer guaranteed sorted by sender (a delayed
    message arrives before the round's fresh ones), and a run containing
    a crash-stopped node returns [completed = false] (the node cannot
    produce an output). *)

module type MESSAGE = sig
  type t

  (** Size of the message on the wire, in bits. *)
  val bits : t -> int
end

(** Raised {e into} node programs still suspended at a [sync] when a run
    ends early (strict-mode overflow, node exception, or [max_rounds]), so
    their stacks unwind and finalizers run.  Node programs should let it
    propagate. *)
exception Stopped

module Make (Msg : MESSAGE) : sig
  type msg = Msg.t

  type ctx
  (** Handle to a node's identity and mailboxes.  A node program has one
      of its own; kernel hooks share their arena's, re-pointed at each
      node, so a hook must use it synchronously. *)

  val my_id : ctx -> int
  val n_nodes : ctx -> int
  val degree : ctx -> int

  (** Sorted neighbor ids (shared array — do not mutate). *)
  val neighbors : ctx -> int array

  (** [(neighbor, edge id)] pairs, sorted by neighbor. *)
  val incident : ctx -> (int * int) array

  (** [send ctx ~dest msg] queues [msg] on the edge to neighbor [dest] for
      delivery at the end of the current round.  Raises [Invalid_argument]
      if [dest] is not a neighbor. *)
  val send : ctx -> dest:int -> Msg.t -> unit

  (** [send_port ctx ~dest ~eid msg] queues on a known incident edge id —
      no search.  The directed-edge accounting is identical to {!send}. *)
  val send_port : ctx -> dest:int -> eid:int -> Msg.t -> unit

  (** [broadcast ctx msg] sends [msg] to every neighbor. *)
  val broadcast : ctx -> Msg.t -> unit

  (** Ends the node's round.  Returns the messages received this round as
      [(sender, message)] pairs sorted by sender; several messages from
      the same sender arrive in reverse send order. *)
  val sync : ctx -> (int * Msg.t) list

  (** [wait ctx k] ends the node's round and parks it until the first
      round in which its inbox is non-empty — returning that inbox, like
      {!sync} — or unconditionally after [k] rounds, returning [[]].
      [wait ctx 1] is exactly [sync ctx]; [k <= 0] returns [[]] without
      ending the round.  Rounds spent parked cost the engine nothing per
      parked node, and a round in which {e every} live node is parked with
      no message in flight is fast-forwarded in O(1) (see the module
      preamble), so protocols should prefer one [wait budget] over a
      budget-length [sync] loop when they only react to arrivals.  With
      fast-forward off the stepping loop steps a waiting node every
      round, and [wait] still returns only on an arrival or at the
      deadline.  Only a node program run by {!run} may call it. *)
  val wait : ctx -> int -> (int * Msg.t) list

  (** A kernel's inbox cursor: a slab index into the round's deliveries,
      chained in delivery order, as in {!Compiled.Make}. *)
  type inbox

  val inbox_is_empty : inbox -> bool
  val inbox_sender : ctx -> inbox -> int
  val inbox_msg : ctx -> inbox -> Msg.t
  val inbox_next : ctx -> inbox -> inbox

  (** [idle ctx k] parks for exactly [k] rounds, discarding any arrivals
      (equivalent to [k] ignored syncs, but fast-forwardable). *)
  val idle : ctx -> int -> unit

  (** Current round number (starts at 0, increments at each [sync]). *)
  val round : ctx -> int

  type 'o result = {
    outputs : 'o option array;
        (** per node; [None] if the node did not finish before [max_rounds];
            [[||]] from {!run_kernel}, whose kernels have no outputs *)
    failures : (int * int * exn) list;
        (** [(round, node, exn)] for every node program that raised, in
            chronological order — non-empty only with [~on_error:`Record]
            (the default [`Propagate] re-raises instead).  The set of
            recorded failures is independent of the [?domains] count. *)
    stats : Stats.t;
    completed : bool;
        (** all nodes ran to completion (false when [max_rounds] hit, a
            node crash-stopped, or a failure was recorded) *)
  }

  type pool
  (** Preallocated delivery state (message buffers, per-edge bit counters,
      worklists) for one graph, reusable across {!run} calls so protocols
      built from many short runs avoid the O(n + m) per-run allocation
      bill.  A pool is single-domain and serves one run at a time; passing
      a busy pool (nested run) or one built for a different graph value
      makes {!run} fall back to fresh allocation. *)

  (** [pool g] preallocates run state for [g].  Also publishes the
      [congest_graph_*_bytes] / [congest_pool_*_bytes] gauges read by the
      M1 memory gate. *)
  val pool : Graphlib.Graph.t -> pool

  (** Analytic resident cost of a pool, in bytes, split the way the M1
      memory experiment reports it: [node_bytes] covers the
      vertex-indexed arrays, [edge_bytes] the edge-indexed arrays (16
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

  (** [run_kernel g ~start ~resume] runs a {!Compiled.step} kernel, in
      {!Compiled.Make.run}'s shape: [start ctx v] at every node in round 0
      (ascending ids), then [resume ctx v inbox] at each round in which
      [v] is due — a non-empty inbox, or the deadline of its last [Park k]
      ([k <= 0] means one round) — until every node halts.  Hooks run on
      the stepping domain's own stack; options are {!run}'s, and the
      result's [outputs] is [[||]].  Without faults its stats and trace
      equal {!Compiled.Make.run}'s for the same kernel (its telemetry
      too, at [~domains:1]). *)
  val run_kernel :
    ?bandwidth:int ->
    ?strict:bool ->
    ?max_rounds:int ->
    ?telemetry:Telemetry.t ->
    ?trace:Trace.t ->
    ?domains:int ->
    ?fast_forward:bool ->
    ?faults:Faults.policy ->
    ?on_round:(int -> unit) ->
    ?on_error:[ `Propagate | `Record ] ->
    ?pool:pool ->
    Graphlib.Graph.t ->
    start:(ctx -> int -> Compiled.step) ->
    resume:(ctx -> int -> inbox -> Compiled.step) ->
    'o result

  (** [run g program] executes [program] at every node of [g], each on a
      fiber of its own, through an adapter kernel run by {!run_kernel}.

      On every early exit — a strict-mode bandwidth failure, an exception
      escaping a node program, or hitting [max_rounds] — all still-suspended
      nodes are discontinued with {!Stopped} before [run] returns or
      re-raises, so no live continuation (or its finalizers) is abandoned.

      @param bandwidth per-edge per-round bit budget
             (default {!Bits.default_bandwidth}).
      @param strict raise [Failure] on the first (edge, round) pair whose
             traffic exceeds [bandwidth], instead of charging extra rounds
             (default [false]).
      @param max_rounds safety limit; exceeding it stops the run with
             [completed = false].  Fast-forwarded spans are capped so the
             run stops at exactly [max_rounds] simulated rounds.
      @param telemetry when given, {!Account} records one
             {!Telemetry.tick} per simulated round (bits, frames,
             messages, fibers stepped, domains used); fast-forwarded
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
             (default [true]).  [false] is the measurement baseline: the
             stepping loop then steps every parked node every round
             (hooks still run only on an arrival or at the deadline),
             reproducing the pre-optimisation engine.  Accounting is
             identical either way; only
             {!Stats.t.fast_forwarded_rounds} records that the shortcut
             was taken.
      @param faults inject deterministic message/node faults drawn from
             the policy's splittable PRNG (default: none).  See
             {e Fault injection} in the module preamble.  Passing
             {!Faults.none} is byte-identical to omitting the argument.
      @param on_error what to do when a node program raises.
             [`Propagate] (the default) discontinues every other node and
             re-raises the exception of the lowest failing node id —
             historical behavior.  [`Record] contains the failure: the
             node dies (its output stays [None]), the round keeps
             stepping, and {e all} failing nodes are reported in
             [result.failures] — the recorded set is the same for every
             [?domains] count, closing the only-one-exception-observable
             gap of [`Propagate].
      @param on_round host-side observer called on the coordinator after
             each completed round — [f 1] per stepped round, [f delta]
             after a fast-forwarded quiescent span of [delta] rounds.
             Runs strictly between rounds (quiescent state) and must not
             touch simulated state; with a pure observer the simulated
             stream is byte-identical with or without the hook.  Drives
             {!Obs.Heartbeat}.
      @param pool reuse preallocated delivery state (must come from
             [pool g] on the same graph value). *)
  val run :
    ?bandwidth:int ->
    ?strict:bool ->
    ?max_rounds:int ->
    ?telemetry:Telemetry.t ->
    ?trace:Trace.t ->
    ?domains:int ->
    ?fast_forward:bool ->
    ?faults:Faults.policy ->
    ?on_round:(int -> unit) ->
    ?on_error:[ `Propagate | `Record ] ->
    ?pool:pool ->
    Graphlib.Graph.t ->
    (ctx -> 'o) ->
    'o result
end
