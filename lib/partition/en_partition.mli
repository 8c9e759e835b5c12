(** The alternative Stage I mentioned at the end of Section 1.1: the
    Elkin–Neiman / Miller–Peng–Xu exponential-shift clustering, adapted (as
    in [13, 14]) to produce, with high probability, a partition into parts
    of diameter [O(log n / eps)] with at most [eps * m] edges between
    parts.  Plugging it into the tester gives an
    [O(log^2 n * poly(1/eps))]-round algorithm instead of Stage I's
    [O(log n * poly(1/eps))] — the comparison experiment in the bench
    harness.

    Every vertex draws an exponential shift [r_v] with rate [beta = eps/2];
    shifted BFS waves run for [R = O(log n / eps)] rounds; each vertex joins
    the cluster of the best wave it hears, its first-contact edge becoming
    the part-tree edge.  An edge ends up cut when its endpoints' best
    shifted distances differ by enough, which happens with probability
    [O(beta)] — so the expected cut is [O(eps * m)].

    Writes the resulting partition into a fresh {!State.t} (part roots,
    parent/children trees), ready for {!Tester.Stage2}. *)

type result = {
  state : State.t;
  cut : int;
  clusters : int;
  radius_bound : int;  (** the R rounds the waves were given *)
}

val run : ?seed:int -> Graphlib.Graph.t -> eps:float -> result
