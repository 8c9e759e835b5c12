(** The communication primitives of the partitions and testers.

    Every function executes one complete CONGEST protocol over the whole
    network in which all nodes follow the same fixed round schedule.  Each
    is written once, as a kernel (see {!Congest.Compiled.step}), and runs
    on the engine ({!Congest.Engine.Make.run_kernel}) with the state's
    settings.  There is no other way to run a node program here, so no
    run of these primitives starts a fiber.
    Chaining primitives keeps every node in lockstep — exactly
    the fixed-budget scheduling the paper uses (it budgets each emulated
    super-round by the [4^i] diameter bound; we budget by the true
    maximum part depth and account the nominal schedule separately).

    Round statistics accumulate into [st.stats].  A run that cannot
    complete under an active fault policy raises
    {!Congest.Faults.Degraded} after still accumulating its stats.  When
    [st.trace] is set, the tree and boundary primitives wrap their engine
    run in a {!Congest.Trace.span} named after themselves
    ("refresh_roots", "bcast", "converge", "boundary"); {!wave} opens no
    span.  Every run's events land on the trace's continuous timeline. *)

(** One round: every node tells every neighbor its current part root;
    updates [nbr_root]. *)
val refresh_roots : State.t -> unit

(** [bcast st ~budget ~tag ~at_root ~on_receive] sends a payload from each
    part root down its tree.  [at_root nd] produces the part's payload
    ([None] = this part stays silent); [on_receive] fires at every node of
    a broadcasting part, the root included.  [budget] must be at least the
    maximum part-tree depth. *)
val bcast :
  State.t ->
  budget:int ->
  tag:int ->
  at_root:(State.node -> int list option) ->
  on_receive:(State.node -> int list -> unit) ->
  unit

(** [converge st ~budget ~tag ~init ~combine ~encode ~decode ~at_root]
    aggregates a value from the leaves of every part tree to its root:
    each node starts from [init nd], combines in its children's values, and
    forwards; the root's total is delivered to [at_root].  [budget] must be
    at least the maximum part-tree depth. *)
val converge :
  State.t ->
  budget:int ->
  tag:int ->
  init:(State.node -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  encode:('a -> int list) ->
  decode:(int list -> 'a) ->
  at_root:(State.node -> 'a -> unit) ->
  unit

(** {!bcast} and {!converge} with a {!Msg.priced} host value on the wire
    ([Msg.Held]) in place of an int list: every hop costs O(1) host work
    to send and to price, and receivers read the very value the sender
    built, so it must never be mutated once sent. *)
val bcast_held :
  State.t ->
  budget:int ->
  tag:int ->
  at_root:(State.node -> Msg.priced option) ->
  on_receive:(State.node -> Msg.priced -> unit) ->
  unit

val converge_held :
  State.t ->
  budget:int ->
  tag:int ->
  init:(State.node -> 'a) ->
  combine:('a -> 'a -> 'a) ->
  encode:('a -> Msg.priced) ->
  decode:(Msg.priced -> 'a) ->
  at_root:(State.node -> 'a -> unit) ->
  unit

(** One round of cross-part messaging.  [payload nd] is computed at most
    once per node — only for a node with an incident edge leading
    outside its part — and [None] keeps the node silent.  One
    [Msg.Bdry] value carrying it goes out on every incident edge leading
    outside the part whose neighbor [to_nbr nd nbr] accepts (default:
    every one); sharing the value keeps the host cost of a message O(1)
    words, and the engine's delivery pass prices the whole run of them
    once.  Deliveries invoke [on_receive nd ~nbr payload].  [payload]
    and [to_nbr] must be pure: neither may depend on how often, or in
    what order, it is called. *)
val boundary :
  ?to_nbr:(State.node -> int -> bool) ->
  State.t ->
  tag:int ->
  payload:(State.node -> int list option) ->
  on_receive:(State.node -> nbr:int -> int list -> unit) ->
  unit

(** What a {!wave} hook sends with: [send ~dest msg] queues [msg] to the
    neighbor [dest], delivered next round. *)
type send = dest:int -> Msg.t -> unit

(** [wave st ~budget ~start ~receive] is the kernel every other
    fixed-budget step is written as: a one-round exchange
    ([~budget:1]) or a flood that may relay for [budget] rounds.
    [start send nd] runs at every node at round 0; [receive send nd
    ~from msg] runs for each delivery, in inbox order; [settle send nd]
    (default: nothing) runs after each non-empty inbox, once all of it
    has been received.  Every hook may send.  Each node parks until
    round [budget], as {!bcast} does, so every call lasts exactly
    [budget] rounds; [budget <= 0] halts each node right after [start].
    Per-node state the hooks keep between rounds lives in arrays the
    caller owns, indexed by node id: the hooks of node [v] may write
    only entry [v]. *)
val wave :
  ?settle:(send -> State.node -> unit) ->
  State.t ->
  budget:int ->
  start:(send -> State.node -> unit) ->
  receive:(send -> State.node -> from:int -> Msg.t -> unit) ->
  unit
