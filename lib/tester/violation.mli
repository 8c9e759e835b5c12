(** Centralized reference implementation of the Stage II labeling and the
    violating-edge condition (Definition 7): used by the distributed tester
    for its per-part logic and by the test suite to validate Claims 8–10.

    Given a BFS tree and a rotation system of a connected graph, every
    vertex gets a label: the sequence of child-edge ranks (clockwise
    position after the parent edge) along its tree path.  Labels are
    compared lexicographically, a prefix ordering first. *)

type label = int list

(** Lexicographic comparison (a proper prefix is smaller). *)
val compare_label : label -> label -> int

(** [labels g tree rot] computes every vertex's label.  The graph must be
    connected and [tree] rooted in it. *)
val labels :
  Graphlib.Graph.t -> Graphlib.Traversal.bfs_tree -> Planarity.Rotation.t ->
  label array

(** [scan_rotation g tree rot v f] walks [v]'s rotation clockwise starting
    after the parent edge (arbitrary fixed start at the root), calling
    [f dart rank t]: [rank] counts tree-child edges passed so far (child
    darts are reported with their own rank and [t = 0]); non-tree darts get
    the position [t >= 1] within the current corner. *)
val scan_rotation :
  Graphlib.Graph.t ->
  Graphlib.Traversal.bfs_tree ->
  Planarity.Rotation.t ->
  int ->
  (int -> int -> int -> unit) ->
  unit

(** The same walk on a plain neighbor-id rotation (used by the distributed
    Stage II): calls [f nbr rank t]. *)
val scan_neighbor_rotation :
  rotation:int array ->
  parent:int ->
  children:int list ->
  (int -> int -> int -> unit) ->
  unit

(** The reserved "infinity" wire symbol used in corner keys: [2n + 1]. *)
val infinity_symbol : Graphlib.Graph.t -> int

(** Corner keys of the non-tree edges at vertex [v], indexed by edge id:
    the vertex label extended by [rank; deg v + 1; t].  Two non-tree edges
    cross in every drawing consistent with [rot] iff their sorted key pairs
    interleave — the corner refinement the Claim 8/10 proofs need (the
    paper's vertex-level labels admit false violations on planar inputs;
    see DESIGN.md). *)
val corner_key :
  Graphlib.Graph.t ->
  Graphlib.Traversal.bfs_tree ->
  Planarity.Rotation.t ->
  label array ->
  int ->
  (int, label) Hashtbl.t

(** Sorted corner-key pairs of every non-tree edge, with edge ids. *)
val edge_keys :
  Graphlib.Graph.t -> Graphlib.Traversal.bfs_tree -> Planarity.Rotation.t ->
  (int * (label * label)) list

(** [intersects (a, b) (c, d)] is the Definition 7 condition on two
    (label-sorted) non-tree edges: after ordering so that the pair with the
    smaller lower endpoint comes first, strict interleaving
    [la < lc < lb < ld]. *)
val intersects : label * label -> label * label -> bool

(** A set of label pairs sorted once for {!crosses}. *)
type crossing

val crossing_index : (label * label) list -> crossing

(** [crosses ix q] is [List.exists (intersects q) pairs] for the [pairs]
    [ix] was built from, in O(log k) label comparisons. *)
val crosses : crossing -> label * label -> bool

(** Non-tree edge ids of the BFS tree. *)
val non_tree_edges :
  Graphlib.Graph.t -> Graphlib.Traversal.bfs_tree -> int list

(** [violating_edges g tree rot] is the set of non-tree edges intersecting
    at least one other non-tree edge, found with one {!crossing_index}
    over all of them. *)
val violating_edges :
  Graphlib.Graph.t -> Graphlib.Traversal.bfs_tree -> Planarity.Rotation.t ->
  int list

(** [count_violating g] builds a BFS tree from vertex 0 and an embedding
    via {!Planarity.Lr.embed_or_adjacency}, then counts violating edges —
    the quantity Claims 8–10 reason about. *)
val count_violating : Graphlib.Graph.t -> int

(** The paper's original vertex-level labeling rule, kept only for the
    ablation (bench A2): it produces false violations on planar inputs,
    which is why the implementation uses corner keys. *)
val violating_edges_vertex_labels :
  Graphlib.Graph.t -> Graphlib.Traversal.bfs_tree -> Planarity.Rotation.t ->
  int list

val count_violating_vertex_labels : Graphlib.Graph.t -> int
