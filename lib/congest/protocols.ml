open Graphlib

module M = struct
  type t = Level of int | Leader of int | Count of int | Child of bool

  let bits = function
    | Level v | Leader v | Count v -> 4 + Bits.int_bits ~universe:(abs v + 2)
    | Child _ -> 5
end

module E = Engine.Make (M)
module C = Compiled.Make (M)

type bfs_result = { parent : int array; level : int array; rounds : int }

(* Each protocol is one kernel (see [Compiled.step]) written against
   [Compiled.NET] and instantiated once per executor; [N.run] executes a
   kernel and returns the run's stats.  Sends follow a fixed order
   (broadcasts in port order, [Child] replies in neighbor order), so
   Stats and Telemetry are the same on either executor;
   test/test_congest.ml holds them to that. *)
module Kernels (N : sig
  include Compiled.NET with type msg = M.t

  val run :
    Graph.t ->
    start:(ctx -> int -> Compiled.step) ->
    resume:(ctx -> int -> inbox -> Compiled.step) ->
    Stats.t
end) =
struct
  (* [rounds_bound] resumes, one per round, then halt. *)
  let countdown ~rounds_bound n =
    let rem = Array.make n rounds_bound in
    let first = if rounds_bound <= 0 then Compiled.Halt else Compiled.Park 1 in
    let next v =
      rem.(v) <- rem.(v) - 1;
      if rem.(v) = 0 then Compiled.Halt else Compiled.Park 1
    in
    (first, next)

  let bfs_tree g ~root ~rounds_bound =
    let n = Graph.n g in
    let parent = Array.make n (-1) in
    let level = Array.make n (-1) in
    let first, next = countdown ~rounds_bound n in
    let start ctx v =
      if v = root then begin
        level.(v) <- 0;
        N.broadcast ctx (M.Level 0)
      end;
      first
    and resume ctx v inbox =
      let cur = ref inbox in
      while not (N.inbox_is_empty !cur) do
        (match N.inbox_msg ctx !cur with
        | M.Level d ->
            if level.(v) < 0 then begin
              level.(v) <- d + 1;
              parent.(v) <- N.inbox_sender ctx !cur;
              N.broadcast ctx (M.Level (d + 1))
            end
        | _ -> assert false);
        cur := N.inbox_next ctx !cur
      done;
      next v
    in
    let stats = N.run g ~start ~resume in
    { parent; level; rounds = stats.Stats.rounds }

  let elect_min_id g ~rounds_bound =
    let n = Graph.n g in
    let leader = Array.init n (fun v -> v) in
    let first, next = countdown ~rounds_bound n in
    let start ctx v =
      N.broadcast ctx (M.Leader v);
      first
    and resume ctx v inbox =
      let improved = ref false in
      let cur = ref inbox in
      while not (N.inbox_is_empty !cur) do
        (match N.inbox_msg ctx !cur with
        | M.Leader c ->
            if c < leader.(v) then begin
              leader.(v) <- c;
              improved := true
            end
        | _ -> assert false);
        cur := N.inbox_next ctx !cur
      done;
      if !improved then N.broadcast ctx (M.Leader leader.(v));
      next v
    in
    ignore (N.run g ~start ~resume);
    leader

  (* Flood-echo on a general graph: the wave builds a BFS tree; on
     adoption a node tells its parent [Child true] and every other
     neighbor [Child false], so each node knows when all neighbor
     relations are resolved and all child counts are in. *)
  let count_nodes g ~root ~rounds_bound =
    let n = Graph.n g in
    let first, next = countdown ~rounds_bound n in
    let parent = Array.make n (-2) in
    (* Every neighbor sends exactly one [Child] message (when it adopts);
       [unknown] resolves purely by receiving them. *)
    let unknown = Array.init n (fun v -> Graph.degree g v) in
    let children_pending = Array.make n 0 in
    let sum = Array.make n 1 in
    let sent = Bytes.make n '\000' in
    let total = ref 0 in
    (* [Level] broadcast first, then one [Child] per neighbor in port
       order; both [Child] values are static constants. *)
    let adopt ctx v from d =
      parent.(v) <- from;
      N.broadcast ctx (M.Level (d + 1));
      for port = 0 to Graph.degree g v - 1 do
        let w = Graph.nbr g v port in
        N.send_port ctx ~dest:w
          ~eid:(Graph.incident_eid g v port)
          (if w = from then M.Child true else M.Child false)
      done
    in
    let start ctx v =
      if v = root then adopt ctx v (-1) (-1);
      first
    and resume ctx v inbox =
      let cur = ref inbox in
      while not (N.inbox_is_empty !cur) do
        (match N.inbox_msg ctx !cur with
        | M.Level d ->
            if parent.(v) = -2 then adopt ctx v (N.inbox_sender ctx !cur) d
        | M.Child true ->
            unknown.(v) <- unknown.(v) - 1;
            children_pending.(v) <- children_pending.(v) + 1
        | M.Child false -> unknown.(v) <- unknown.(v) - 1
        | M.Count c ->
            sum.(v) <- sum.(v) + c;
            children_pending.(v) <- children_pending.(v) - 1
        | _ -> assert false);
        cur := N.inbox_next ctx !cur
      done;
      if
        unknown.(v) = 0
        && children_pending.(v) = 0
        && Bytes.get sent v = '\000'
        && parent.(v) >= -1
      then begin
        Bytes.set sent v '\001';
        if parent.(v) >= 0 then N.send ctx ~dest:parent.(v) (M.Count sum.(v))
        else total := sum.(v)
      end;
      next v
    in
    let stats = N.run g ~start ~resume in
    (!total, stats.Stats.rounds)
end

module KE = Kernels (struct
  include E

  let run g ~start ~resume = (E.run_kernel g ~start ~resume).E.stats
end)

module KC = Kernels (struct
  include C

  let run g ~start ~resume = (C.run g ~start ~resume).C.stats
end)

let bfs_tree ?(mode = Compiled.Fiber) =
  if Compiled.pick mode ~faults:false then KC.bfs_tree else KE.bfs_tree

let elect_min_id ?(mode = Compiled.Fiber) =
  if Compiled.pick mode ~faults:false then KC.elect_min_id else KE.elect_min_id

let count_nodes ?(mode = Compiled.Fiber) =
  if Compiled.pick mode ~faults:false then KC.count_nodes else KE.count_nodes
