(** Execution statistics of a CONGEST run.

    [rounds] counts synchronous rounds as executed by the engine.
    [charged_rounds] is the bandwidth-honest cost: a round in which some
    edge carried [k > 1] frames of [bandwidth] bits is charged [k] rounds
    (modelling the pipelining a real CONGEST algorithm would need), and
    substituted subroutines may add explicit charges ({!Account.charge}).

    Only {!Account} adds to a record's counts ([max_edge_bits] and
    [oversized] aside, which the executors' per-edge charge pass owns);
    {!add_into} sums the records of finished runs. *)

type t = {
  mutable rounds : int;
  mutable charged_rounds : int;
  mutable messages : int;
  mutable total_bits : int;
  mutable max_edge_bits : int;  (** max bits on one edge in one round *)
  mutable oversized : int;  (** (round, edge) pairs exceeding bandwidth *)
  mutable fast_forwarded_rounds : int;
      (** of [rounds], how many were provably quiescent and advanced in O(1)
          by the engine instead of being stepped; included in [rounds] and
          [charged_rounds], so nominal accounting is unchanged *)
  mutable dropped : int;
      (** messages the fault layer destroyed (drops, truncations, and
          deliveries to/from a crashed node); still charged on the wire *)
  mutable duplicated : int;  (** extra copies injected by the fault layer *)
  mutable delayed : int;  (** messages the fault layer deferred by >= 1 round *)
  mutable crashed_nodes : int;
      (** crash events that actually took effect during the run *)
  bandwidth : int;
}

val create : bandwidth:int -> t

(** Independent snapshot of the counters. *)
val copy : t -> t

(** [frames ~bandwidth bits] is the number of [bandwidth]-bit frames needed
    to carry [bits] on one edge in one round (at least 1). *)
val frames : bandwidth:int -> int -> int

(** [add_into acc s] accumulates the counters of [s] into [acc] (used when
    an algorithm is a sequence of engine runs). *)
val add_into : t -> t -> unit

(** [faults_fired t] is [true] iff any fault-layer counter is non-zero —
    i.e. the run's outcome may have been influenced by injected faults. *)
val faults_fired : t -> bool

val pp : Format.formatter -> t -> unit
