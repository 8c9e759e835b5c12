module S = Partition.State
module P = Partition.Prims

type part_info = {
  root : int;
  n_nodes : int;
  m_edges : int;
  excess : int;
}

type details = {
  parts : part_info list;
  excess_edges : int;
  depth_bound : int;
}

(* Stage II for cycle-freeness: each part root learns its part's node and
   edge counts by convergecast and rejects iff [m_j >= n_j] — a connected
   part is a tree exactly when [m_j = n_j - 1], so any excess edge closes
   a cycle.  Edge ownership (deeper endpoint, ties by id) makes every
   intra-part edge count exactly once.

   Completeness: in a forest every part is a sub-forest, so
   [m_j <= n_j - 1] at every root and no one rejects.  Soundness: the
   excess of [g] (edges beyond a spanning forest) is exactly the number
   of deletions to cycle-freeness, so an eps-far input has excess
   >= eps * m; the cut removes <= eps * m / 2 edges, leaving total
   intra-part excess >= eps * m / 2 > 0 — some part root sees
   [m_j >= n_j] and rejects with certainty on a fault-free run. *)
let stage2 st ~eps:_ ~seed:_ =
  let bfs = Part_bfs.build st in
  let budget = bfs.Part_bfs.depth_bound + 2 in
  let counts = Array.make (Graphlib.Graph.n st.S.graph) None in
  P.converge st ~budget ~tag:93
    ~init:(fun nd ->
      let edges = ref 0 in
      Part_bfs.iter_intra st nd (fun _ w ->
          if Part_bfs.assigned_to bfs st nd.S.id w then incr edges);
      (1, !edges))
    ~combine:(fun (a, b) (x, y) -> (a + x, b + y))
    ~encode:(fun (a, b) -> [ a; b ])
    ~decode:(function [ a; b ] -> (a, b) | _ -> assert false)
    ~at_root:(fun nd t -> counts.(nd.S.id) <- Some t);
  (* Nominal schedule: refresh_roots (1) + BFS flood (budget) + level
     exchange (1) + convergecast (budget); [budget] is a function of the
     partition alone, so invariant across domains and ff. *)
  st.S.nominal_rounds <- st.S.nominal_rounds + (2 * budget) + 2;
  let parts =
    List.map
      (fun (root, _) ->
        let nj, mj = Part_bfs.at_root counts root in
        if mj >= nj then
          st.S.rejections <-
            ( root,
              Printf.sprintf
                "part %d: %d intra-part edges >= %d nodes — contains a cycle"
                root mj nj )
            :: st.S.rejections;
        { root; n_nodes = nj; m_edges = mj; excess = max 0 (mj - (nj - 1)) })
      (S.parts st)
  in
  {
    parts;
    excess_edges = List.fold_left (fun acc p -> acc + p.excess) 0 parts;
    depth_bound = bfs.Part_bfs.depth_bound;
  }

let run ?seed ?alpha ?partition ?measure_diameters ?telemetry ?trace ?domains
    ?fast_forward ?faults ?checkpoint ?heartbeat g ~eps =
  Harness.run ?seed ?alpha ?partition ?measure_diameters ?telemetry ?trace
    ?domains ?fast_forward ?faults ?checkpoint ?heartbeat
    ~property:"cycle-free" ~stage2 g ~eps

let accepts ?seed ?partition g ~eps =
  match (snd (run ?seed ?partition g ~eps)).Harness.verdict with
  | Harness.Accept -> true
  | Harness.Reject _ | Harness.Degraded _ -> false
