(** Distributed cycle-freeness tester on the shared {!Harness}.

    Stage I partitions the graph into low-diameter parts cutting at most
    [eps * m / 2] edges; Stage II convergecasts each part's node and
    intra-part edge counts up its BFS tree (built by {!Part_bfs}) and the
    root rejects iff [m_j >= n_j] — a connected part is a tree exactly
    when [m_j = n_j - 1], so any excess certifies a cycle.

    One-sided error: a forest never rejects (every part of a forest is a
    sub-forest).  If the input is [eps]-far from cycle-free (its excess
    over a spanning forest is at least [eps * m]), the cut removes at
    most [eps * m / 2] of that excess, so some part retains an excess
    edge and its root rejects — with certainty on a fault-free run, not
    merely with high probability.

    Accounting inherits the harness contract: verdict and totals are
    byte-identical across [?domains] and [?fast_forward]. *)

(** Per-part summary gathered by convergecast at each part root. *)
type part_info = {
  root : int;
  n_nodes : int;
  m_edges : int;  (** intra-part edges (each counted once, at its owner) *)
  excess : int;  (** [max 0 (m_edges - (n_nodes - 1))] — cycles certified *)
}

(** Stage II outcome, [fst] of {!run}'s result ([None] when Stage II was
    skipped because Stage I rejected or the run degraded). *)
type details = {
  parts : part_info list;
  excess_edges : int;  (** total excess across all parts *)
  depth_bound : int;  (** maximum part-tree depth used as the BFS budget *)
}

(** Same knobs, defaults and guarantees as {!Harness.run} (and hence as
    {!Planarity_tester.run}, minus the embedding option). *)
val run :
  ?seed:int ->
  ?alpha:int ->
  ?partition:Harness.partition_mode ->
  ?measure_diameters:bool ->
  ?telemetry:Congest.Telemetry.t ->
  ?trace:Congest.Trace.t ->
  ?domains:int ->
  ?fast_forward:bool ->
  ?faults:Congest.Faults.policy ->
  ?checkpoint:Harness.checkpoint ->
  ?heartbeat:Obs.Heartbeat.t ->
  Graphlib.Graph.t ->
  eps:float ->
  details option * Harness.totals

(** Convenience: [accepts] a graph iff the verdict is [Accept]. *)
val accepts :
  ?seed:int ->
  ?partition:Harness.partition_mode ->
  Graphlib.Graph.t ->
  eps:float ->
  bool
