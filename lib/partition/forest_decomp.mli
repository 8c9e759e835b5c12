(** The forest-decomposition step of each Stage I phase (Sections 2.1.1 and
    2.1.5): the Barenboim–Elkin peeling process run on the auxiliary graph
    [G_i], emulated on [G] with super-rounds.

    A part deactivates when at most [3 * alpha] of its neighboring parts
    are still active; on deactivation its root records the active-neighbor
    snapshot (with edge multiplicities — the weights of [G_i]), and one
    super-round later it orients its auxiliary edges: toward parts that
    outlived it, and by root id among parts that deactivated in the same
    super-round.  Parts still active after [super_rounds] super-rounds are
    evidence that [G_i] has arboricity exceeding [alpha]: their roots
    reject.

    On return, each deactivated part root [r] carries [deact_round],
    [snapshot] and [out_edges].  The simulation stops early once every part
    is oriented (the remaining super-rounds of the paper's fixed schedule
    would be no-ops); the caller accounts the nominal schedule.

    @return the number of super-rounds actually simulated. *)
val run : State.t -> alpha:int -> super_rounds:int -> budget:int -> int

(** [super_rounds_for n] is the [Theta (log n)] super-round bound under
    which every bounded-arboricity graph fully deactivates (a third of the
    live parts deactivate per super-round). *)
val super_rounds_for : int -> int

(** A part's view of its active neighbouring parts: [Counts] lists each
    distinct neighbouring part root with its edge multiplicity, in
    first-arrival order; [Many] means more than [3 * alpha] of them. *)
type agg = Many | Counts of (int * int) list

(** The per-node bounded tables behind the notice round and its
    convergecast, exposed for testing.  Node [v]'s table holds at most
    [3 * alpha] [(root, count)] slots in first-arrival order, or an
    overflow mark that reads out as [Many].  A node's table is written
    only through its own node's hooks. *)
module Table : sig
  type t

  val create : nodes:int -> alpha:int -> t

  (** Empty every node's table. *)
  val clear : t -> unit

  (** [add t v r x] counts [x] more edges from part [r] at node [v]. *)
  val add : t -> int -> int -> int -> unit

  (** [absorb t v payload] decodes a child's [Up] payload ([[-1]] for
      [Many], else [root; count] pairs) and combines it into [v]'s table.
      @raise Failure on an odd payload. *)
  val absorb : t -> int -> int list -> unit

  (** [v]'s [Up] payload: [[-1]] for [Many], else the flat pairs. *)
  val encode : t -> int -> int list

  val agg : t -> int -> agg
end
