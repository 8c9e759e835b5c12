open Graphlib
module S = Partition.State
module P = Partition.Prims
module M = Partition.Msg

type embedding_mode = Oracle | Collect

type part_info = {
  root : int;
  n_nodes : int;
  m_edges : int;
  non_tree : int;
  euler_rejected : bool;
  embedding_planar : bool;
  sampled : int;
  truncated : bool;
}

type result = {
  accepted : bool;
  rejections : (int * string) list;
  parts : part_info list;
  sample_target : int;
}

let sample_target ~n ~eps =
  int_of_float (ceil (4.0 *. log (float_of_int (n + 2)) /. eps))

(* The first [cap] items of a convergecast stream, kept reversed so that
   appending a child's items costs O(items added) and no item is copied.
   [cost] is the wire price of the kept items; values are immutable, so
   a sent accumulator is never touched again. *)
module Prefix = struct
  type 'a t = { rev_items : 'a list; count : int; truncated : bool; cost : int }

  let of_list ~price items =
    {
      rev_items = List.rev items;
      count = List.length items;
      truncated = false;
      cost = List.fold_left (fun acc x -> acc + price x) 0 items;
    }

  let to_list a = List.rev a.rev_items

  (* Drops the first [k] items of [l], taking their prices off [cost]. *)
  let rec drop ~price k cost l =
    if k = 0 then (l, cost)
    else
      match l with
      | x :: rest -> drop ~price (k - 1) (cost - price x) rest
      | [] -> assert false

  (* On overflow the last [excess] items of [a @ b] go: they are the
     first ones of the reversed [b.rev_items @ a.rev_items]. *)
  let append ~cap ~price a b =
    let total = a.count + b.count in
    if total <= cap then
      {
        rev_items = b.rev_items @ a.rev_items;
        count = total;
        truncated = a.truncated || b.truncated;
        cost = a.cost + b.cost;
      }
    else
      let excess = total - cap in
      let rev_items, cost =
        if excess <= b.count then
          let rest, cost = drop ~price excess b.cost b.rev_items in
          (rest @ a.rev_items, a.cost + cost)
        else drop ~price (excess - b.count) a.cost a.rev_items
      in
      { rev_items; count = cap; truncated = true; cost }
end

(* A non-tree edge's sorted corner-key pair with the wire price of its
   encoding [|a|; a...; |b|; b...], computed once where the pair is made. *)
type keyed = { pair : Violation.label * Violation.label; price : int }

let keyed (a, b) =
  let label_cost l = M.int_cost (List.length l) + M.list_cost l in
  { pair = (a, b); price = label_cost a + label_cost b }

let price k = k.price
let edge_price (u, v) = M.int_cost u + M.int_cost v

(* Stage II's host values on the wire (see [Msg.Held]). *)
type M.held +=
  | Edges of (int * int) Prefix.t  (* tag 90: [u; v]* *)
  | Rotations of (int, int array) Hashtbl.t  (* tag 91: [v; deg; row...]* *)
  | Sample of keyed Prefix.t  (* tag 88: truncated flag, then the pairs *)
  | Sorted_sample of Violation.crossing  (* tag 89: the pairs *)

(* Each [cost] is the [Msg.list_cost] of the int list the value stands
   for, summed from prices computed where the items were made. *)
let edges_msg e = { M.value = Edges e; cost = e.Prefix.cost }

let rotations_msg rows =
  let table = Hashtbl.create 16 in
  let cost =
    List.fold_left
      (fun cost (v, row) ->
        Hashtbl.replace table v row;
        Array.fold_left
          (fun c w -> c + M.int_cost w)
          (cost + M.int_cost v + M.int_cost (Array.length row))
          row)
      0 rows
  in
  { M.value = Rotations table; cost }

let sample_msg s =
  let flag = M.int_cost (Bool.to_int s.Prefix.truncated) in
  { M.value = Sample s; cost = flag + s.Prefix.cost }

let sorted_sample_msg s =
  let pairs = List.map (fun k -> k.pair) (Prefix.to_list s) in
  let sorted = Violation.crossing_index pairs in
  { M.value = Sorted_sample sorted; cost = s.Prefix.cost }

(* Rotation walk for a node of the Stage II state: the rotation is stored
   as neighbor ids, the tree is in the node's parent/children fields. *)
let scan (nd : S.node) rotation f =
  Violation.scan_neighbor_rotation ~rotation:rotation.(nd.S.id)
    ~parent:nd.S.parent ~children:nd.S.children f

(* An embedding of a part's subgraph [sub] as every vertex's rotation in
   global neighbor ids, and whether it is planar. *)
let global_rows sub back =
  let rot, planar = Planarity.Lr.embed_or_adjacency sub in
  let row lv =
    Array.map
      (fun d -> back.(Planarity.Rotation.dst sub d))
      (Planarity.Rotation.rotation rot lv)
  in
  (List.init (Graph.n sub) (fun lv -> (back.(lv), row lv)), planar)

let run ?(embedding = Oracle) st ~eps ~seed =
  let g = st.S.graph in
  let n = Graph.n g in
  let stage2_rejections_before = List.length st.S.rejections in
  (* Steps 1–2: per-part BFS trees and level exchange.  [parts] is also
     the orchestrator-side per-part data for the embedding substitution. *)
  let bfs = Part_bfs.build st in
  let parts = bfs.Part_bfs.parts in
  let budget = bfs.Part_bfs.depth_bound + 2 in
  let iter_intra = Part_bfs.iter_intra in
  let assigned_to (nd : S.node) w = Part_bfs.assigned_to bfs st nd.S.id w in
  let is_tree_edge (nd : S.node) w = Part_bfs.is_tree_edge st nd.S.id w in
  (* Step 3: per-part node / edge / non-tree-edge counts; Euler check. *)
  let counts = Array.make n None in
  P.converge st ~budget ~tag:84
    ~init:(fun nd ->
      let edges = ref 0 and nt = ref 0 in
      iter_intra st nd (fun _ w ->
          if assigned_to nd w then begin
            incr edges;
            if not (is_tree_edge nd w) then incr nt
          end);
      (1, !edges, !nt))
    ~combine:(fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z))
    ~encode:(fun (a, b, c) -> [ a; b; c ])
    ~decode:(function [ a; b; c ] -> (a, b, c) | _ -> assert false)
    ~at_root:(fun nd t -> counts.(nd.S.id) <- Some t);
  let euler_rejected = Hashtbl.create 4 in
  List.iter
    (fun { Part_bfs.root; _ } ->
      let nj, mj, _ = Part_bfs.at_root counts root in
      if nj >= 3 && mj > (3 * nj) - 6 then begin
        Hashtbl.replace euler_rejected root ();
        st.S.rejections <-
          ( root,
            Printf.sprintf "part %d: m = %d > 3n - 6 = %d (Euler bound)" root
              mj ((3 * nj) - 6) )
          :: st.S.rejections
      end)
    parts;
  (* Step 4 (substituted Ghaffari–Haeupler): obtain a combinatorial
     embedding of each part. *)
  let rotation = Array.make n [||] in
  let embedding_ok = Hashtbl.create 16 in
  (match embedding with
  | Oracle ->
      (* Centralized embedding per part, charged the GH round cost
         O(D + min (log n_j, D)). *)
      let max_embed_charge = ref 0 in
      List.iter
        (fun { Part_bfs.root; sub; back; ecc = d_j; _ } ->
          let rows, planar = global_rows sub back in
          Hashtbl.replace embedding_ok root planar;
          List.iter (fun (v, row) -> rotation.(v) <- row) rows;
          let log_nj = Congest.Bits.id_bits (Graph.n sub) in
          max_embed_charge := max !max_embed_charge (d_j + min log_nj d_j))
        parts;
      Congest.Account.charge ~stats:st.S.stats ~telemetry:st.S.telemetry
        !max_embed_charge;
      st.S.nominal_rounds <- st.S.nominal_rounds + !max_embed_charge
  | Collect ->
      (* In-model: each root convergecasts its part's edge list, embeds
         locally, and broadcasts every vertex's rotation back down.  The
         payloads are large; the engine's bandwidth accounting charges the
         pipelining rounds. *)
      let edges_at_root = Array.make n None in
      P.converge_held st ~budget ~tag:90
        ~init:(fun nd ->
          let acc = ref [] in
          iter_intra st nd (fun _ w ->
              if assigned_to nd w then acc := (nd.S.id, w) :: !acc);
          Prefix.of_list ~price:edge_price !acc)
        ~combine:(Prefix.append ~cap:max_int ~price:edge_price)
        ~encode:edges_msg
        ~decode:(function { M.value = Edges e; _ } -> e | _ -> assert false)
        ~at_root:(fun nd e -> edges_at_root.(nd.S.id) <- Some e);
      (* Local computation at each root. *)
      let rotations_at_root = Hashtbl.create 16 in
      List.iter
        (fun { Part_bfs.root; back; _ } ->
          let pairs = Prefix.to_list (Part_bfs.at_root edges_at_root root) in
          let fwd = Hashtbl.create 16 in
          Array.iteri (fun i v -> Hashtbl.add fwd v i) back;
          let sub =
            Graph.make ~n:(Array.length back)
              (List.map
                 (fun (u, v) -> (Hashtbl.find fwd u, Hashtbl.find fwd v))
                 pairs)
          in
          let rows, planar = global_rows sub back in
          Hashtbl.replace embedding_ok root planar;
          Hashtbl.replace rotations_at_root root (rotations_msg rows))
        parts;
      (* Broadcast the full rotation table; each node keeps its row. *)
      P.bcast_held st ~budget ~tag:91
        ~at_root:(fun nd -> Some (Hashtbl.find rotations_at_root nd.S.id))
        ~on_receive:(fun nd p ->
          match p.M.value with
          | Rotations rows -> (
              match Hashtbl.find_opt rows nd.S.id with
              | Some row -> rotation.(nd.S.id) <- row
              | None -> ())
          | _ -> assert false));
  (* Step 5: label distribution down the BFS trees. *)
  let label = Array.make n [] in
  (* Each node's (child, rank) pairs in rotation order, found once before
     the wave. *)
  let child_ranks =
    Array.map
      (fun nd ->
        let l = ref [] in
        scan nd rotation (fun w rank t -> if t = 0 then l := (w, rank) :: !l);
        List.rev !l)
      st.S.nodes
  in
  let send_child_labels send nd mylab =
    List.iter
      (fun (w, rank) -> send ~dest:w (M.Down (85, mylab @ [ rank ])))
      child_ranks.(nd.S.id)
  in
  P.wave st ~budget
    ~start:(fun send nd ->
      if S.is_root st nd.S.id then begin
        label.(nd.S.id) <- [];
        send_child_labels send nd []
      end)
    ~receive:(fun send nd ~from msg ->
      match msg with
      | M.Down (85, lab) ->
          assert (from = nd.S.parent);
          label.(nd.S.id) <- lab;
          send_child_labels send nd lab
      | _ -> assert false);
  (* Step 6: corner keys of incident non-tree edges; exchange across each
     edge so the assigned endpoint holds the sorted key pair. *)
  let inf = (2 * n) + 1 in
  let my_keys = Array.make n [] in
  Array.iter
    (fun nd ->
      scan nd rotation (fun w rank t ->
          if t > 0 then
            my_keys.(nd.S.id) <-
              (w, label.(nd.S.id) @ [ rank; inf; t ]) :: my_keys.(nd.S.id)))
    st.S.nodes;
  let assigned_pairs = Array.make n [] in
  P.wave st ~budget:1
    ~start:(fun send nd ->
      List.iter
        (fun (w, key) -> send ~dest:w (M.Bdry (86, key)))
        my_keys.(nd.S.id))
    ~receive:(fun _ nd ~from msg ->
      match msg with
      | M.Bdry (86, key_other) ->
          if assigned_to nd from then begin
            let key_mine = List.assoc from my_keys.(nd.S.id) in
            let pair =
              keyed
                (if Violation.compare_label key_mine key_other <= 0 then
                   (key_mine, key_other)
                 else (key_other, key_mine))
            in
            assigned_pairs.(nd.S.id) <- pair :: assigned_pairs.(nd.S.id)
          end
      | _ -> assert false);
  (* Step 7: roots broadcast the part's non-tree edge count. *)
  let nt_count = Array.make n 0 in
  P.bcast st ~budget ~tag:87
    ~at_root:(fun nd ->
      let _, _, ntj = Part_bfs.at_root counts nd.S.id in
      Some [ ntj ])
    ~on_receive:(fun nd pl ->
      match pl with [ ntj ] -> nt_count.(nd.S.id) <- ntj | _ -> assert false);
  (* Step 8: sample Theta (log n / eps) non-tree edges per part. *)
  let starget = sample_target ~n ~eps in
  let cap = (4 * starget) + 8 in
  let samples = Array.make n None in
  P.converge_held st ~budget ~tag:88
    ~init:(fun nd ->
      let ntj = nt_count.(nd.S.id) in
      if ntj = 0 then Prefix.of_list ~price []
      else begin
        let p = min 1.0 (float_of_int starget /. float_of_int ntj) in
        let rng = Random.State.make [| seed; nd.S.id; 0x7a11 |] in
        Prefix.of_list ~price
          (List.filter
             (fun _ -> Random.State.float rng 1.0 < p)
             assigned_pairs.(nd.S.id))
      end)
    ~combine:(Prefix.append ~cap ~price)
    ~encode:sample_msg
    ~decode:(function { M.value = Sample s; _ } -> s | _ -> assert false)
    ~at_root:(fun nd s -> samples.(nd.S.id) <- Some s);
  (* Step 9: broadcast the sample, sorted once per part at its root;
     every node checks its assigned edges with crossing queries. *)
  let sample_at = Array.make n (Violation.crossing_index []) in
  P.bcast_held st ~budget ~tag:89
    ~at_root:(fun nd ->
      Some (sorted_sample_msg (Part_bfs.at_root samples nd.S.id)))
    ~on_receive:(fun nd p ->
      match p.M.value with
      | Sorted_sample sorted -> sample_at.(nd.S.id) <- sorted
      | _ -> assert false);
  Array.iter
    (fun nd ->
      let found =
        List.exists
          (fun mine -> Violation.crosses sample_at.(nd.S.id) mine.pair)
          assigned_pairs.(nd.S.id)
      in
      if found then
        st.S.rejections <-
          ( nd.S.id,
            Printf.sprintf
              "node %d: a non-tree edge intersects a sampled non-tree edge \
               (Definition 7)"
              nd.S.id )
          :: st.S.rejections)
    st.S.nodes;
  st.S.nominal_rounds <- st.S.nominal_rounds + (12 * budget) + 6;
  let parts_info =
    List.map
      (fun { Part_bfs.root; _ } ->
        let nj, mj, ntj = Part_bfs.at_root counts root in
        let s =
          Option.value samples.(root) ~default:(Prefix.of_list ~price [])
        in
        {
          root;
          n_nodes = nj;
          m_edges = mj;
          non_tree = ntj;
          euler_rejected = Hashtbl.mem euler_rejected root;
          embedding_planar = Hashtbl.find embedding_ok root;
          sampled = s.Prefix.count;
          truncated = s.Prefix.truncated;
        })
      parts
  in
  {
    accepted = List.length st.S.rejections = stage2_rejections_before;
    rejections = st.S.rejections;
    parts = parts_info;
    sample_target = starget;
  }
