open Graphlib
module S = Partition.State

type result = {
  spanner : Graph.t;
  tree_edges : int;
  cut_edges : int;
  stretch_bound : int;
  rounds : int;
  nominal_rounds : int;
}

(* The cut target is [eps * n] edges; each partition states its own
   target in other units: Stage I [eps' * m / 2], exponential shifts
   [eps' * m], Random_partition [eps' * n]. *)
let partition_eps g ~eps (partition : Harness.partition_mode) =
  let n = float_of_int (Graph.n g) and m = float_of_int (Graph.m g) in
  let per_edge scale =
    if m = 0.0 then eps else max 1e-9 (min 0.999 (scale *. eps *. n /. m))
  in
  match partition with
  | Stage_one -> per_edge 2.0
  | Exponential_shifts -> per_edge 1.0
  | Randomized _ -> eps

let build ?(partition = Harness.Stage_one) ?(seed = 0) ?state g ~eps =
  let n = Graph.n g in
  let st = match state with Some st -> st | None -> S.create g in
  let eps' = partition_eps g ~eps partition in
  (match partition with
  | Stage_one -> ignore (Partition.Stage1.run ~state:st g ~eps:eps')
  | Exponential_shifts ->
      ignore (Partition.En_partition.run ~seed ~state:st g ~eps:eps')
  | Randomized delta ->
      ignore (Partition.Random_partition.run ~state:st g ~eps:eps' ~delta ~seed));
  let bfs = Part_bfs.build st in
  (* Every node contributes its BFS parent edge and its incident cut
     edges; the orchestrator assembles the edge set. *)
  let edges = Hashtbl.create (2 * n) in
  let add u v =
    Hashtbl.replace edges (min u v, max u v) ()
  in
  let tree_count = ref 0 in
  Array.iter
    (fun nd ->
      if nd.S.parent >= 0 then begin
        add nd.S.id nd.S.parent;
        incr tree_count
      end;
      Array.iteri
        (fun port (nbr, _) ->
          if nd.S.nbr_root.(port) <> nd.S.part_root then add nd.S.id nbr)
        (Graph.incident g nd.S.id))
    st.S.nodes;
  let cut = S.cut_edges st in
  let spanner =
    Graph.make ~n (Hashtbl.fold (fun e () acc -> e :: acc) edges [])
  in
  {
    spanner;
    tree_edges = !tree_count;
    cut_edges = cut;
    stretch_bound = (2 * bfs.Part_bfs.depth_bound) + 1;
    rounds = st.S.stats.Congest.Stats.rounds;
    nominal_rounds = st.S.nominal_rounds + (2 * bfs.Part_bfs.depth_bound) + 3;
  }

let measured_stretch ?(samples = 2000) ?rng g spanner =
  let m = Graph.m g in
  let check = Array.make m false in
  (if m <= samples then Array.fill check 0 m true
   else
     let rng =
       match rng with Some r -> r | None -> Random.State.make [| 0xbeef |]
     in
     for _ = 1 to samples do
       check.(Random.State.int rng m) <- true
     done);
  (* Group sampled edges by an endpoint to share BFS runs. *)
  let by_src = Hashtbl.create 64 in
  Graph.iter_edges
    (fun e u v ->
      if check.(e) then
        Hashtbl.replace by_src u ((v, e) :: Option.value ~default:[] (Hashtbl.find_opt by_src u)))
    g;
  Hashtbl.fold
    (fun u targets acc ->
      let dist = Traversal.dist_from spanner u in
      List.fold_left
        (fun acc (v, _) ->
          if dist.(v) < 0 then max_int else max acc dist.(v))
        acc targets)
    by_src 1
