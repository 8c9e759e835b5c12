(** Tree and boundary communication primitives of the Stage I emulation.

    Every function executes one complete CONGEST protocol over the whole
    network in which all nodes follow the same fixed round schedule.  Each
    is written once, as a kernel (see {!Congest.Compiled.step}), and runs
    on the executor [st.mode] selects: the compiled array passes, or the
    fiber engine (always under faults).  Chaining primitives keeps every
    node in lockstep — exactly the fixed-budget scheduling the paper uses (it
    budgets each emulated super-round by the [4^i] diameter bound; we
    budget by the true maximum part depth and account the nominal schedule
    separately).

    Round statistics accumulate into [st.stats].  When [st.trace] is set,
    each primitive wraps its engine run in a {!Congest.Trace.span} named
    after itself ("refresh_roots", "bcast", "converge", "boundary"), and
    the run's events land on the trace's continuous timeline. *)

module Eng : sig
  type ctx

  type 'o result = {
    outputs : 'o option array;
    rejections : (int * int * string) list;  (** (round, node, reason) *)
    failures : (int * int * exn) list;  (** (round, node, exn) *)
    stats : Congest.Stats.t;
    completed : bool;
  }
end

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
    words, and the compiled delivery pass prices the whole run of them
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

(** [run_program st program] escape hatch: run an arbitrary node program
    over the state's graph, accumulating stats.  [program] receives the
    engine context and this node's state.  [seed] feeds the per-node
    random states.  When [st.faults] is an active policy the engine
    injects its fault schedule; a run that cannot complete under it (a
    crash-stopped node, or [max_rounds]) raises
    {!Congest.Faults.Degraded} after still accumulating the run's stats. *)
val run_program :
  ?seed:int -> State.t -> (Eng.ctx -> State.node -> unit) -> unit

(** Per-node random state (valid inside [run_program]). *)
val rng : Eng.ctx -> Random.State.t

(** Node-level API usable inside [run_program]. *)
val sync : Eng.ctx -> (int * Msg.t) list

(** [wait ctx k]: park until the first arrival or for [k] rounds,
    whichever comes first (see {!Congest.Engine.Make.wait}); prefer it
    over a [k]-iteration [sync] loop so quiet spans can be
    fast-forwarded. *)
val wait : Eng.ctx -> int -> (int * Msg.t) list

(** Current round number inside a run. *)
val round : Eng.ctx -> int

(** [wait_rounds ctx ~budget on_inbox] runs the node for exactly [budget]
    further rounds, invoking [on_inbox] on every non-empty inbox and
    parking it in between.  Drop-in replacement for a [budget]-iteration
    [sync] loop whose empty-inbox iterations are no-ops: the node observes
    the same arrivals in the same rounds and finishes in the same round,
    but quiet spans become fast-forwardable. *)
val wait_rounds :
  Eng.ctx -> budget:int -> ((int * Msg.t) list -> unit) -> unit

val send : Eng.ctx -> dest:int -> Msg.t -> unit

val reject : Eng.ctx -> string -> unit
