open Graphlib
module S = Partition.State
module P = Partition.Prims

type part_info = {
  root : int;
  n_nodes : int;
  m_edges : int;
  odd_edges : int;
}

type details = {
  parts : part_info list;
  odd_edges : int;
  depth_bound : int;
}

(* Stage II for bipartiteness: 2-color each part along its BFS tree and
   look for an intra-part edge joining equal parities — the certificate
   of an odd cycle.  Tree edges always join adjacent (hence
   opposite-parity) levels, so only assigned non-tree edges are checked;
   the deeper endpoint (ties: larger id) owns each edge, so every edge is
   examined exactly once.

   Completeness: a bipartite graph has bipartite parts, and in a
   bipartite part every edge joins opposite BFS parities — no node ever
   rejects.  Soundness: if [g] is eps-far from bipartite (>= eps * m
   edge deletions needed), deleting the <= eps * m / 2 cut edges leaves
   parts that still need >= eps * m / 2 deletions in total, so some part
   is non-bipartite and its (exact, within-part) BFS exposes an
   equal-parity edge deterministically. *)
let stage2 st ~eps:_ ~seed:_ =
  let n = Graph.n st.S.graph in
  let bfs = Part_bfs.build st in
  let budget = bfs.Part_bfs.depth_bound + 2 in
  (* Local parity check: [build] already delivered every neighbor's BFS
     level ([nbr_level]), so no further rounds are needed to decide. *)
  let odd_at = Array.make n 0 in
  Array.iter
    (fun nd ->
      let v = nd.S.id in
      Part_bfs.iter_intra st nd (fun _ w ->
          if
            Part_bfs.assigned_to bfs st v w
            && not (Part_bfs.is_tree_edge st v w)
          then
            let dv = bfs.Part_bfs.dist.(v)
            and dw = List.assoc w bfs.Part_bfs.nbr_level.(v) in
            if (dv - dw) mod 2 = 0 then begin
              odd_at.(v) <- odd_at.(v) + 1;
              st.S.rejections <-
                ( v,
                  Printf.sprintf
                    "node %d: intra-part edge (%d, %d) joins equal BFS \
                     parities (odd cycle)"
                    v v w )
                :: st.S.rejections
            end))
    st.S.nodes;
  (* Convergecast per-part totals to the roots, for the report (the
     verdict is already decided above). *)
  let counts = Array.make n None in
  P.converge st ~budget ~tag:92
    ~init:(fun nd ->
      let edges = ref 0 in
      Part_bfs.iter_intra st nd (fun _ w ->
          if Part_bfs.assigned_to bfs st nd.S.id w then incr edges);
      (1, !edges, odd_at.(nd.S.id)))
    ~combine:(fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z))
    ~encode:(fun (a, b, c) -> [ a; b; c ])
    ~decode:(function [ a; b; c ] -> (a, b, c) | _ -> assert false)
    ~at_root:(fun nd t -> counts.(nd.S.id) <- Some t);
  (* Nominal schedule: refresh_roots (1) + BFS flood (budget) + level
     exchange (1) + convergecast (budget).  [budget] depends only on the
     partition, so this is invariant across domains and ff. *)
  st.S.nominal_rounds <- st.S.nominal_rounds + (2 * budget) + 2;
  let parts =
    List.map
      (fun (root, _) ->
        let nj, mj, oj = Part_bfs.at_root counts root in
        { root; n_nodes = nj; m_edges = mj; odd_edges = oj })
      (S.parts st)
  in
  {
    parts;
    odd_edges =
      List.fold_left (fun acc (p : part_info) -> acc + p.odd_edges) 0 parts;
    depth_bound = bfs.Part_bfs.depth_bound;
  }

let run ?seed ?alpha ?partition ?measure_diameters ?telemetry ?trace ?domains
    ?fast_forward ?faults ?checkpoint ?heartbeat g ~eps =
  Harness.run ?seed ?alpha ?partition ?measure_diameters ?telemetry ?trace
    ?domains ?fast_forward ?faults ?checkpoint ?heartbeat
    ~property:"bipartite" ~stage2 g ~eps

let accepts ?seed ?partition g ~eps =
  match (snd (run ?seed ?partition g ~eps)).Harness.verdict with
  | Harness.Accept -> true
  | Harness.Reject _ | Harness.Degraded _ -> false
