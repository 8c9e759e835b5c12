(** The Elkin–Neiman spanner (SODA 2017), the baseline the paper compares
    its minor-free spanner against in Section 1.2.

    A [k]-round randomized CONGEST algorithm for general unweighted
    graphs: every vertex draws an exponential radius [r_v] with rate
    [ln (n / delta) / k] (failing, with probability at most [delta], when
    some draw reaches [k]); shifted BFS waves [(r_v - dist)] propagate for
    [k] rounds; each vertex keeps the edge to the first wave it hears and
    to every neighbor whose best wave value is within 1 of its own.  With
    probability [1 - delta] the result is a (2k - 1)-spanner with
    [O (n^{1 + 1/k} / delta)] edges in expectation.

    The waves are one {!Partition.Prims.wave} of budget [k], run with
    [state]'s engine settings (default a fresh {!Partition.State.t}):
    domains, mode, fast-forward, telemetry and trace.  Node [v] draws
    from [Random.State.make [| seed; v; 0x5eed |]], and a wave message is
    priced at 64 bits.  The result is the same for every setting. *)

type result = {
  spanner : Graphlib.Graph.t;
  edges : int;
  rounds : int;  (** rounds of this run alone, [k] on a non-empty graph *)
  failed : bool;  (** some radius reached [k] (probability <= delta) *)
}

val build :
  ?seed:int ->
  ?state:Partition.State.t ->
  Graphlib.Graph.t ->
  k:int ->
  delta:float ->
  result
