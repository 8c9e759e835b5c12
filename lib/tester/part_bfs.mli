(** Distributed BFS-tree construction inside every part of a Stage I
    partition (the preprocessing step of Section 2.2.1), shared by the
    planarity tester's Stage II, the minor-free property testers of
    Corollary 16 and the spanner construction of Corollary 17.

    Replaces the Stage I trees in the node state with BFS trees rooted at
    each part root and returns the BFS levels.  A second exchange round
    gives every node its intra-part neighbors' levels (used for edge
    assignment and odd-cycle detection). *)

(** One part as the orchestrator sees it, induced once per run. *)
type part = {
  root : int;
  sub : Graphlib.Graph.t;  (** the subgraph the part's members induce *)
  back : int array;
      (** local id of [sub] -> global id: the members in
          {!Partition.State.parts} order *)
  ecc : int;  (** eccentricity of [root] in [sub] *)
}

type t = {
  dist : int array;  (** BFS level within the part *)
  nbr_level : (int * int) list array;
      (** per node: (intra-part neighbor, its level) *)
  depth_bound : int;  (** max root eccentricity over parts (the budget) *)
  parts : part list;  (** in {!Partition.State.parts} order *)
}

val build : Partition.State.t -> t

(** [is_tree_edge st v w] after {!build}: the edge [(v, w)] belongs to the
    part's BFS tree. *)
val is_tree_edge : Partition.State.t -> int -> int -> bool

(** [assigned_to t st v w] — the paper's edge-assignment rule: the edge
    goes to the deeper endpoint, ties to the larger id. *)
val assigned_to : t -> Partition.State.t -> int -> int -> bool

(** [at_root a root] is the value part root [root] stored in [a.(root)]
    from inside a kernel hook; raises [Not_found] if it stored none.
    Per-part convergecast results go in a node-indexed [option array]:
    roots stepped by different domains then write distinct cells,
    where a shared [Hashtbl] would race. *)
val at_root : 'a option array -> int -> 'a

(** Iterate the intra-part (port, neighbor) pairs of a node. *)
val iter_intra :
  Partition.State.t -> Partition.State.node -> (int -> int -> unit) -> unit
