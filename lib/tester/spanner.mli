(** Spanner construction for unweighted minor-free graphs (Corollary 17).

    Run a partitioning algorithm with edge-cut target [eps * n], then keep
    the BFS tree of every part plus every inter-part edge.  The result has
    at most [(1 + eps) n] edges (deterministically for the Stage I
    partition; with probability [1 - delta] for the Theorem 4 variant;
    the exponential shifts bound their cut only up to a constant, in
    expectation) and stretch at most [2 D + 1] where [D] is the maximum
    part diameter — [poly (1/eps)]. *)

type result = {
  spanner : Graphlib.Graph.t;
  tree_edges : int;
  cut_edges : int;
  stretch_bound : int;  (** [2 * max part eccentricity + 1] *)
  rounds : int;
  nominal_rounds : int;
}

(** [build ?partition ?seed ?state g ~eps] runs [partition] (default
    [Stage_one]; [seed] drives the randomized ones) and {!Part_bfs.build}
    on [state] (default a fresh {!Partition.State.t}), so every round runs
    with that state's engine settings: domains, mode, fast-forward,
    telemetry and trace.  Each partition's own eps is set so its cut
    target is [eps * n] edges.  [rounds] and [nominal_rounds] are the
    state's totals, so pass a fresh state. *)
val build :
  ?partition:Harness.partition_mode ->
  ?seed:int ->
  ?state:Partition.State.t ->
  Graphlib.Graph.t ->
  eps:float ->
  result

(** [measured_stretch ?samples ?rng g spanner] — the maximum over (sampled)
    edges [(u, v)] of [g] of the spanner distance from [u] to [v] (exact
    when [samples] covers all edges; default samples all edges up to
    2000, then random). *)
val measured_stretch :
  ?samples:int -> ?rng:Random.State.t -> Graphlib.Graph.t -> Graphlib.Graph.t -> int
