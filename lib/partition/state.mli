(** Persistent per-node state threaded through the sub-protocols of the
    partition algorithm (Stage I of the tester, Section 2.1 of the paper).

    Each part [P_i^j] is identified by the id of its root node [r_i^j]; the
    spanning tree [T_i^j] is stored as parent pointers plus children lists
    (Lemma 6).  The forest-decomposition fields mirror the super-round
    emulation of Section 2.1.5 and are only meaningful at part roots. *)

(** The simulator engine instance all partition/tester code shares (so one
    preallocated {!Congest.Engine.Make.pool} serves every run). *)
module Eng : module type of Congest.Engine.Make (Msg)

(** A designated child edge [(u, v)] as its parent-side endpoint [v]
    sees it.  Only [v]'s own hooks write it. *)
type bdry_child = {
  child : int;  (** the child part's charge node [u], [v]'s neighbor *)
  child_root : int;  (** the child part's root *)
  weight : int;  (** the selected out-edge's weight *)
  mutable child_color : int;  (** the child part's final color, 0 = unknown *)
  mutable marked : bool;  (** the edge got marked (CHW Sub-step 2b) *)
}

type node = {
  id : int;
  mutable part_root : int;
  mutable parent : int;  (** parent vertex in the part tree, [-1] at root *)
  mutable children : int list;
  mutable nbr_root : int array;
      (** per incidence index: the neighbor's part root, refreshed at each
          phase start *)
  (* Forest-decomposition (root-only) fields: *)
  mutable active : bool;
  mutable deact_round : int;  (** super-round at which the part deactivated *)
  mutable snapshot : (int * int) list;
      (** (neighbor part root, edge multiplicity) of parts active when this
          part deactivated — the out-edge candidates with weights *)
  mutable out_edges : (int * int) list;
      (** oriented out-edges (target part root, weight) *)
  (* Merging-step fields: *)
  mutable fsel_target : int;  (** selected out-edge target root, -1 = none *)
  mutable fsel_weight : int;
  mutable charge_node : int;
      (** designated node [u_i^j] in charge of the selected out-edge *)
  mutable charge_nbr : int;  (** its chosen neighbor [v_i^j] across the cut *)
  mutable charge_weight : int;
      (** at the charge node: the selected out-edge's weight *)
  mutable color : int;
      (** Cole–Vishkin color of the part; held by every member after the
          coloring's final broadcast *)
  mutable parent_color : int;  (** color of the F-parent part (root-only) *)
  mutable out_marked : bool;  (** the selected out-edge got marked *)
  mutable bdry_children : bdry_child list;
      (** at a boundary node [v]: one entry per designated child edge whose
          cross endpoint is [v], newest first *)
  mutable tlevel : int;  (** level within the shallow marked tree, -1 unset *)
  mutable w0 : int;  (** accumulated weight of even edges below (root-only) *)
  mutable w1 : int;  (** accumulated weight of odd edges below (root-only) *)
  mutable tbit : int;  (** contraction decision bit of this part's T-tree *)
  mutable contract : bool;  (** this part merges into its T-parent *)
  (* Scratch fields used by individual kernels: *)
  mutable scratch : int;
  mutable scratch2 : int;
  mutable scratch_list : (int * int) list;
}

type t = {
  graph : Graphlib.Graph.t;
  nodes : node array;
  stats : Congest.Stats.t;  (** accumulated over every engine run *)
  pool : Eng.pool;
      (** reusable engine delivery and scheduling state — every run of
          a {!Prims} kernel over [graph] draws on it instead of
          allocating per run *)
  mutable rejections : (int * string) list;
      (** one-sided-error evidence collected so far, newest first *)
  mutable nominal_rounds : int;
      (** rounds the paper's fixed 4^i / Theta (log n) schedule would use
          for the work simulated so far (the simulator itself runs each
          sub-step only for the true part depth, for feasibility) *)
  mutable telemetry : Congest.Telemetry.t option;
      (** when set, every engine run through {!Prims} records its
          per-round series here (see {!Congest.Telemetry}) *)
  mutable trace : Congest.Trace.t option;
      (** when set, every engine run through {!Prims} appends its typed
          event records here on one continuous absolute-round timeline
          (see {!Congest.Trace}), and each primitive wraps itself in a
          labelled span *)
  mutable domains : int;
      (** OCaml domains every engine run through {!Prims} shards node
          stepping across (default 1 = serial; accounting is identical
          for any value — see {!Congest.Engine}) *)
  mutable fast_forward : bool;
      (** when [true] (the default) engine runs skip provably quiescent
          rounds in O(1); disable only to measure the optimisation's
          effect — accounting is identical either way *)
  mutable faults : Congest.Faults.policy option;
      (** when set to an active policy, every engine run through {!Prims}
          injects the deterministic fault schedule it describes; a run
          that cannot complete under it raises {!Congest.Faults.Degraded}
          rather than failing silently *)
  mutable on_round : (int -> unit) option;
      (** host-side per-round observer threaded to every engine run
          through {!Prims}: [f 1] per stepped
          round, [f delta] per fast-forwarded span.  Must not touch
          simulated state — drives {!Obs.Heartbeat} ticks. *)
  converge_left : int array;
      (** {!Prims.converge}'s per-node scratch, reused by every call: the
          children whose value has not arrived yet, or [-1] once the
          node has sent (or, at a root, delivered) its total.  Only node
          [v]'s own hooks write [converge_left.(v)] during a run. *)
}

(** Fresh state: singleton parts, every node the root of its own part. *)
val create : Graphlib.Graph.t -> t

(** Rebuild a state around [g] from previously captured pieces — the
    constructor behind checkpoint/resume.  The [nodes] array is adopted
    as-is (it must have been built against a graph with the same CSR
    layout, e.g. the same file reloaded); a fresh engine {!Eng.pool} is
    allocated, and the observer fields ([telemetry], [trace], [domains],
    [fast_forward], [faults]) reset to their {!create} defaults — callers
    reconfigure them afterwards exactly as after [create].

    Raises [Invalid_argument] if [Array.length nodes <> Graph.n g]. *)
val restore :
  Graphlib.Graph.t ->
  nodes:node array ->
  stats:Congest.Stats.t ->
  rejections:(int * string) list ->
  nominal_rounds:int ->
  t

(** [phase st label] opens the phase [label] on every observer the state
    carries: a {!Congest.Telemetry} phase, a {!Congest.Trace} phase and
    the log context. *)
val phase : t -> string -> unit

val node : t -> int -> node

(** [is_root st v] holds when [v] is its part's root. *)
val is_root : t -> int -> bool

(** Maximum depth of any part tree (0 for singleton parts). *)
val max_depth : t -> int

(** [parts st] lists the current parts as (root, members). *)
val parts : t -> (int * int list) list

(** Number of edges of the graph crossing between distinct parts. *)
val cut_edges : t -> int

(** Checks structural invariants: parent pointers form in-part trees rooted
    at the declared part roots, children lists are consistent, and every
    part is connected in the graph.  Raises [Failure] with a description on
    violation.  (Used heavily by the test suite.) *)
val check_invariants : t -> unit
