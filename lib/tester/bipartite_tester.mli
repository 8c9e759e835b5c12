(** Distributed bipartiteness tester on the shared {!Harness}.

    Stage I partitions the graph into low-diameter parts cutting at most
    [eps * m / 2] edges; Stage II 2-colors each part along its BFS tree
    (built by {!Part_bfs}) and rejects at any node owning an intra-part
    edge that joins equal BFS parities — the local certificate of an odd
    cycle.

    One-sided error: a bipartite input never rejects (every part of a
    bipartite graph is bipartite, and within a part the BFS parities are
    exact).  If the input is [eps]-far from bipartite (more than
    [eps * m] edge deletions needed), removing the cut still leaves some
    part non-bipartite, and its BFS exposes an equal-parity edge
    deterministically — so far inputs reject with certainty on a
    fault-free run, not merely with high probability.

    Accounting inherits the harness contract: verdict and totals are
    byte-identical across [?domains] and [?fast_forward]. *)

(** Per-part summary gathered by convergecast at each part root. *)
type part_info = {
  root : int;
  n_nodes : int;
  m_edges : int;  (** intra-part edges (each counted once, at its owner) *)
  odd_edges : int;  (** equal-parity intra-part edges found in this part *)
}

(** Stage II outcome, [fst] of {!run}'s result ([None] when Stage II was
    skipped because Stage I rejected or the run degraded). *)
type details = {
  parts : part_info list;
  odd_edges : int;  (** total equal-parity edges across all parts *)
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
