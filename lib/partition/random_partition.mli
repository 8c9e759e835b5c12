(** The randomized partition algorithm for minor-free graphs (Theorem 4,
    Section 4): the forest-decomposition verification step is skipped
    (arboricity is promised), and each part selects an incident auxiliary
    edge by the weighted-edge selection — [s = Theta (log 1/delta)]
    independent draws, each uniform over the part's incident cut edges
    (Section 4.1's tree-sampling emulation), keeping the heaviest draw.
    The merge then proceeds exactly as in the deterministic algorithm
    (designation, Cole–Vishkin on the resulting pseudo-forest — mutual
    selections resolved toward the lower root id — marking, contraction).

    Round complexity [O(poly (1/eps) (log (1/delta) + log* n))] per the
    paper; with probability [1 - delta] the final cut is at most
    [eps * n] when the input is minor-free. *)

type result = {
  state : State.t;
  phases : int;
  rounds : int;
  nominal_rounds : int;
  cut : int;  (** inter-part edges at termination *)
}

(** Draws per phase: [ceil (ln (1/delta)) + 1]. *)
val trials_for : delta:float -> int

(** [run ?alpha ?stop_when_met ?state g ~eps ~delta ~seed] executes the
    partition.  [alpha] is the promised arboricity bound (3 for planar).
    [state] (default a fresh [State.create g]) is the state to partition
    in place; its engine settings (telemetry, trace, domains, faults,
    ...) apply to every round the partition runs. *)
val run :
  ?alpha:int ->
  ?stop_when_met:bool ->
  ?state:State.t ->
  Graphlib.Graph.t ->
  eps:float ->
  delta:float ->
  seed:int ->
  result
