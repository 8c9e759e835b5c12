(** Stage II of the tester (Section 2.2): per-part planarity testing.

    Takes the Stage I state (partition into connected low-diameter parts,
    Lemma 6 trees) and, concurrently in every part [G^j]:

    + builds a BFS tree [T_B^j] from the part root (replacing the Stage I
      tree in the node state),
    + counts [n (G^j)] and [m (G^j)] and rejects when
      [m (G^j) > 3 n (G^j) - 6],
    + obtains a combinatorial embedding — the substituted
      Ghaffari–Haeupler step: a centralized left-right embedding of the
      part, charged [O(D + min (log n, D))] rounds (arbitrary rotations
      when the part is not planar, exactly the case the paper's detection
      step must catch),
    + distributes the tree labels and corner keys, samples
      [Theta (log n / eps)] non-tree edges per part, broadcasts them, and
      rejects on any Definition 7 (corner-refined) intersection.

    One-sided: a planar input never rejects. *)

type part_info = {
  root : int;
  n_nodes : int;
  m_edges : int;
  non_tree : int;
  euler_rejected : bool;  (** rejected by the [m > 3n - 6] check *)
  embedding_planar : bool;  (** the substituted embedding step succeeded *)
  sampled : int;  (** non-tree edges sampled in this part *)
  truncated : bool;  (** sample exceeded the cap and was truncated *)
}

(** How the combinatorial-embedding step (the substituted
    Ghaffari–Haeupler call) is realized:
    - [Oracle]: a centralized left-right embedding per part, charged the
      GH round cost [O(D + min (log n, D))] — the default, matching the
      paper's complexity.
    - [Collect]: fully in-model — every part's root gathers the part's
      edge list by convergecast, computes the embedding locally and
      broadcasts all rotations back down; every bit crosses simulated
      edges and oversized payloads are charged extra rounds, costing
      [Omega (m_j log n / B)] rounds per part.  Exists to measure what the
      GH algorithm saves (bench E14). *)
type embedding_mode = Oracle | Collect

type result = {
  accepted : bool;
  rejections : (int * string) list;
      (** rejections raised during Stage II (on top of any from Stage I) *)
  parts : part_info list;
  sample_target : int;  (** the Theta (log n / eps) per-part sample size *)
}

(** [run st ~eps ~seed] executes Stage II on the Stage I state; round and
    message statistics accumulate into [st.stats]. *)
val run :
  ?embedding:embedding_mode ->
  Partition.State.t ->
  eps:float ->
  seed:int ->
  result

(** The per-part sample size [ceil (4 ln (n + 2) / eps)]. *)
val sample_target : n:int -> eps:float -> int

(** {2 The sample path's host values}

    Exposed for tests.  Stage II sends its sample (tags 88 and 89), the
    Collect-mode edge list (90) and rotation table (91) as
    {!Partition.Msg.priced} host values; each is priced exactly as the
    flat int list it stands for. *)

(** The first [cap] items of a convergecast stream with their wire price.
    Immutable: appending shares the items of both operands. *)
module Prefix : sig
  type 'a t = private {
    rev_items : 'a list;  (** the kept items, last first *)
    count : int;
    truncated : bool;
    cost : int;  (** sum of the kept items' prices *)
  }

  val of_list : price:('a -> int) -> 'a list -> 'a t
  val to_list : 'a t -> 'a list

  (** [append ~cap ~price a b] keeps [take cap (to_list a @ to_list b)];
      [truncated] is set when that drops anything, else it is
      [a.truncated || b.truncated].  O(items of [b] + items dropped). *)
  val append : cap:int -> price:('a -> int) -> 'a t -> 'a t -> 'a t
end

(** A sorted corner-key pair with the price of its encoding
    [[|a|; a...; |b|; b...]]. *)
type keyed = private {
  pair : Violation.label * Violation.label;
  price : int;
}

val keyed : Violation.label * Violation.label -> keyed

(** Tag 88: the truncated flag (0 or 1), then the pairs. *)
val sample_msg : keyed Prefix.t -> Partition.Msg.priced

(** Tag 89: the pairs, sorted for {!Violation.crosses}. *)
val sorted_sample_msg : keyed Prefix.t -> Partition.Msg.priced

(** The price of one edge [(u, v)] of the tag-90 list. *)
val edge_price : int * int -> int

(** Tag 90: [[u; v]*]. *)
val edges_msg : (int * int) Prefix.t -> Partition.Msg.priced

(** Tag 91: [[v; deg; row...]*] over [(v, row)] in order. *)
val rotations_msg : (int * int array) list -> Partition.Msg.priced
