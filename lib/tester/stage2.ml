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

let encode_pairs pairs =
  List.concat_map
    (fun (a, b) -> (List.length a :: a) @ (List.length b :: b))
    pairs

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let decode_pairs l =
  let rec split k l =
    if k = 0 then ([], l)
    else
      match l with
      | x :: rest ->
          let a, b = split (k - 1) rest in
          (x :: a, b)
      | [] -> failwith "Stage2.decode_pairs: short payload"
  in
  let rec go = function
    | [] -> []
    | la :: rest ->
        let a, rest = split la rest in
        (match rest with
        | lb :: rest ->
            let b, rest = split lb rest in
            (a, b) :: go rest
        | [] -> failwith "Stage2.decode_pairs: missing second label")
  in
  go l

(* The Collect-mode rotation table [v; deg; row...]* as rows by node. *)
let decode_rotations pl =
  let rows = Hashtbl.create 64 in
  let rec scan = function
    | [] -> ()
    | v :: deg :: rest ->
        let row = Array.make deg 0 in
        let rec fill i l =
          if i = deg then l
          else
            match l with
            | x :: tl ->
                row.(i) <- x;
                fill (i + 1) tl
            | [] -> failwith "Stage2.decode_rotations: short payload"
        in
        let rest = fill 0 rest in
        Hashtbl.replace rows v row;
        scan rest
    | [ _ ] -> failwith "Stage2.decode_rotations: missing degree"
  in
  scan pl;
  rows

(* Host-side sharing of a root broadcast's decode, one slot per part.
   Relays forward the root's payload list itself, so every node of a part
   normally receives the very value its root sent.  The root's own
   [on_receive] (round 0) stores [(payload, decoded)] in its part's slot;
   a receiver reuses [decoded] only when its payload is physically that
   value and decodes anything else itself.  The slot is written in round
   0, before any relay exists, and read only in later rounds, after a
   round barrier, so sharded fiber steps never race on it.  The simulated
   wire and its accounting are untouched. *)
let shared_decode st decode =
  let slot = Array.make (Graph.n st.S.graph) None in
  fun (nd : S.node) pl ->
    match slot.(nd.S.part_root) with
    | Some (sent, decoded) when sent == pl -> decoded
    | _ ->
        let decoded = decode pl in
        if nd.S.part_root = nd.S.id then slot.(nd.S.id) <- Some (pl, decoded);
        decoded

let run ?(embedding = Oracle) st ~eps ~seed =
  let g = st.S.graph in
  let n = Graph.n g in
  let stage2_rejections_before = List.length st.S.rejections in
  (* Orchestrator-side per-part data for the embedding substitution. *)
  let induced_parts =
    List.map
      (fun (root, members) ->
        let sub, back = Graph.induced g members in
        let local_root = ref (-1) in
        Array.iteri (fun i v -> if v = root then local_root := i) back;
        (root, members, sub, back, !local_root))
      (S.parts st)
  in
  (* Steps 1–2: per-part BFS trees and level exchange. *)
  let bfs = Part_bfs.build st in
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
    (fun (root, _, _, _, _) ->
      let nj, mj, _ = Part_bfs.at_root counts root in
      if nj >= 3 && mj > (3 * nj) - 6 then begin
        Hashtbl.replace euler_rejected root ();
        st.S.rejections <-
          ( root,
            Printf.sprintf "part %d: m = %d > 3n - 6 = %d (Euler bound)" root
              mj ((3 * nj) - 6) )
          :: st.S.rejections
      end)
    induced_parts;
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
        (fun (root, _, sub, back, local_root) ->
          let rot, planar = Planarity.Lr.embed_or_adjacency sub in
          Hashtbl.replace embedding_ok root planar;
          for lv = 0 to Graph.n sub - 1 do
            rotation.(back.(lv)) <-
              Array.map
                (fun d -> back.(Planarity.Rotation.dst sub d))
                (Planarity.Rotation.rotation rot lv)
          done;
          let d_j = Traversal.eccentricity sub local_root in
          let log_nj = Congest.Bits.id_bits (Graph.n sub) in
          max_embed_charge := max !max_embed_charge (d_j + min log_nj d_j))
        induced_parts;
      Congest.Account.charge ~stats:st.S.stats ~telemetry:st.S.telemetry
        !max_embed_charge;
      st.S.nominal_rounds <- st.S.nominal_rounds + !max_embed_charge
  | Collect ->
      (* In-model: each root convergecasts its part's edge list, embeds
         locally, and broadcasts every vertex's rotation back down.  The
         payloads are large; the engine's bandwidth accounting charges the
         pipelining rounds. *)
      let edges_at_root = Array.make n None in
      P.converge st ~budget ~tag:90
        ~init:(fun nd ->
          let acc = ref [] in
          iter_intra st nd (fun _ w ->
              if assigned_to nd w then acc := (nd.S.id, w) :: !acc);
          !acc)
        ~combine:( @ )
        ~encode:(fun pairs ->
          List.concat_map (fun (u, v) -> [ u; v ]) pairs)
        ~decode:(fun l ->
          let rec go = function
            | [] -> []
            | u :: v :: rest -> (u, v) :: go rest
            | [ _ ] -> assert false
          in
          go l)
        ~at_root:(fun nd pairs -> edges_at_root.(nd.S.id) <- Some pairs);
      (* Local computation at each root. *)
      let rotations_at_root = Hashtbl.create 16 in
      List.iter
        (fun (root, members, _, _, _) ->
          let pairs = Part_bfs.at_root edges_at_root root in
          let back = Array.of_list members in
          let fwd = Hashtbl.create 16 in
          Array.iteri (fun i v -> Hashtbl.add fwd v i) back;
          let sub =
            Graph.make ~n:(Array.length back)
              (List.map
                 (fun (u, v) -> (Hashtbl.find fwd u, Hashtbl.find fwd v))
                 pairs)
          in
          let rot, planar = Planarity.Lr.embed_or_adjacency sub in
          Hashtbl.replace embedding_ok root planar;
          let payload =
            List.concat_map
              (fun lv ->
                let r =
                  Array.to_list
                    (Array.map
                       (fun d -> back.(Planarity.Rotation.dst sub d))
                       (Planarity.Rotation.rotation rot lv))
                in
                (back.(lv) :: List.length r :: r))
              (List.init (Graph.n sub) Fun.id)
          in
          Hashtbl.replace rotations_at_root root payload)
        induced_parts;
      (* Broadcast the full rotation table; each node keeps its row. *)
      let rows_of = shared_decode st decode_rotations in
      P.bcast st ~budget ~tag:91
        ~at_root:(fun nd -> Some (Hashtbl.find rotations_at_root nd.S.id))
        ~on_receive:(fun nd pl ->
          match Hashtbl.find_opt (rows_of nd pl) nd.S.id with
          | Some row -> rotation.(nd.S.id) <- row
          | None -> ()));
  (* Step 5: label distribution down the BFS trees. *)
  let label = Array.make n [] in
  P.run_program st (fun ctx nd ->
      let send_child_labels mylab =
        Tester_util.scan nd rotation (fun w rank t ->
            if t = 0 then P.send ctx ~dest:w (M.Down (85, mylab @ [ rank ])))
      in
      (if S.is_root st nd.S.id then begin
         label.(nd.S.id) <- [];
         send_child_labels []
       end);
      P.wait_rounds ctx ~budget
        (List.iter (fun (from, msg) ->
             match msg with
             | M.Down (85, lab) ->
                 assert (from = nd.S.parent);
                 label.(nd.S.id) <- lab;
                 send_child_labels lab
             | _ -> assert false)));
  (* Step 6: corner keys of incident non-tree edges; exchange across each
     edge so the assigned endpoint holds the sorted key pair. *)
  let inf = (2 * n) + 1 in
  let my_keys = Array.make n [] in
  Array.iter
    (fun nd ->
      Tester_util.scan nd rotation (fun w rank t ->
          if t > 0 then
            my_keys.(nd.S.id) <-
              (w, label.(nd.S.id) @ [ rank; inf; t ]) :: my_keys.(nd.S.id)))
    st.S.nodes;
  let assigned_pairs = Array.make n [] in
  P.run_program st (fun ctx nd ->
      List.iter
        (fun (w, key) -> P.send ctx ~dest:w (M.Bdry (86, key)))
        my_keys.(nd.S.id);
      let inbox = P.sync ctx in
      List.iter
        (fun (from, msg) ->
          match msg with
          | M.Bdry (86, key_other) ->
              if assigned_to nd from then begin
                let key_mine = List.assoc from my_keys.(nd.S.id) in
                let pair =
                  if Violation.compare_label key_mine key_other <= 0 then
                    (key_mine, key_other)
                  else (key_other, key_mine)
                in
                assigned_pairs.(nd.S.id) <- pair :: assigned_pairs.(nd.S.id)
              end
          | _ -> assert false)
        inbox);
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
  P.converge st ~budget ~tag:88
    ~init:(fun nd ->
      let ntj = nt_count.(nd.S.id) in
      if ntj = 0 then ([], false)
      else begin
        let p = min 1.0 (float_of_int starget /. float_of_int ntj) in
        let rng = Random.State.make [| seed; nd.S.id; 0x7a11 |] in
        let chosen =
          List.filter (fun _ -> Random.State.float rng 1.0 < p)
            assigned_pairs.(nd.S.id)
        in
        (chosen, false)
      end)
    ~combine:(fun (a, ta) (b, tb) ->
      let all = a @ b in
      if List.length all > cap then (take cap all, true)
      else (all, ta || tb))
    ~encode:(fun (pairs, t) -> (if t then 1 else 0) :: encode_pairs pairs)
    ~decode:(function
      | t :: rest -> (decode_pairs rest, t = 1)
      | [] -> assert false)
    ~at_root:(fun nd s -> samples.(nd.S.id) <- Some s);
  (* Step 9: broadcast the sample; every node checks its assigned edges. *)
  let sample_at = Array.make n [] in
  let sample_of = shared_decode st decode_pairs in
  P.bcast st ~budget ~tag:89
    ~at_root:(fun nd ->
      let pairs, _ = Part_bfs.at_root samples nd.S.id in
      Some (encode_pairs pairs))
    ~on_receive:(fun nd pl -> sample_at.(nd.S.id) <- sample_of nd pl);
  Array.iter
    (fun nd ->
      let found =
        List.exists
          (fun mine ->
            List.exists (Violation.intersects mine) sample_at.(nd.S.id))
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
      (fun (root, _, _, _, _) ->
        let nj, mj, ntj = Part_bfs.at_root counts root in
        let pairs, trunc = Option.value samples.(root) ~default:([], false) in
        {
          root;
          n_nodes = nj;
          m_edges = mj;
          non_tree = ntj;
          euler_rejected = Hashtbl.mem euler_rejected root;
          embedding_planar = Hashtbl.find embedding_ok root;
          sampled = List.length pairs;
          truncated = trunc;
        })
      induced_parts
  in
  {
    accepted = List.length st.S.rejections = stage2_rejections_before;
    rejections = st.S.rejections;
    parts = parts_info;
    sample_target = starget;
  }
