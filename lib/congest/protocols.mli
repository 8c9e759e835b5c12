(** Classic CONGEST building blocks on the simulator, provided both as
    reusable substrate and as validation targets for the engine (their
    round complexities are textbook facts the tests pin down).  Each is
    one kernel written over {!Compiled.NET}; {!Kernels} exposes them for
    any executor, and the functions below run them on the engine. *)

(** The protocols' message type. *)
module M : sig
  type t = Level of int | Leader of int | Count of int | Child of bool

  val bits : t -> int
end

(** Result of {!bfs_tree}: parent pointers and levels of a BFS tree rooted
    at the source ([-1] parent at the root and at unreached nodes). *)
type bfs_result = {
  parent : int array;
  level : int array;  (** [-1] when unreached *)
  rounds : int;
}

(** The protocols over any executor [N]: [N.run] runs one kernel to
    completion and returns its stats. *)
module Kernels (N : sig
  include Compiled.NET with type msg = M.t

  val run :
    Graphlib.Graph.t ->
    start:(ctx -> int -> Compiled.step) ->
    resume:(ctx -> int -> inbox -> Compiled.step) ->
    Stats.t
end) : sig
  val bfs_tree : Graphlib.Graph.t -> root:int -> rounds_bound:int -> bfs_result

  val elect_min_id : Graphlib.Graph.t -> rounds_bound:int -> int array

  val count_nodes :
    Graphlib.Graph.t -> root:int -> rounds_bound:int -> int * int
end

(** [bfs_tree g ~root ~rounds_bound] floods from [root] for
    [rounds_bound] rounds (use an eccentricity upper bound, e.g. [n]). *)
val bfs_tree : Graphlib.Graph.t -> root:int -> rounds_bound:int -> bfs_result

(** Leader election by min-id flooding: every node learns the smallest id
    in its component in (at most) [rounds_bound] rounds; returns the
    per-node leader. *)
val elect_min_id : Graphlib.Graph.t -> rounds_bound:int -> int array

(** Flood-echo from [root]: counts the nodes of [root]'s component using a
    spanning-tree convergecast; returns (count, rounds). *)
val count_nodes : Graphlib.Graph.t -> root:int -> rounds_bound:int -> int * int
