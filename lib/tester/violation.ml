open Graphlib

type label = int list

let rec compare_label (a : label) (b : label) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b -> if x = y then compare_label a b else Int.compare x y

(* Walks [v]'s rotation clockwise starting just after the parent edge (for
   the root: after an arbitrary fixed dart) and calls [f] on every dart
   with the current tree-child rank [r] (children passed so far) and the
   position [t] within the current corner (non-tree darts since the last
   child edge).  Child darts are reported with their own (fresh) rank and
   [t = 0]. *)
let scan_rotation g (tree : Traversal.bfs_tree) rot v f =
  let rotation = Planarity.Rotation.rotation rot v in
  let deg = Array.length rotation in
  if deg > 0 then begin
    let start =
      if tree.Traversal.parent.(v) >= 0 then begin
        let pd =
          Planarity.Rotation.dart_of g ~src:v tree.Traversal.parent_edge.(v)
        in
        let idx = ref (-1) in
        Array.iteri (fun i d -> if d = pd then idx := i) rotation;
        assert (!idx >= 0);
        !idx
      end
      else deg (* root: start before index 0 *)
    in
    let is_child_dart d =
      let e = Planarity.Rotation.edge_of_dart d in
      let w = Graph.other_endpoint g e v in
      tree.Traversal.parent.(w) = v && tree.Traversal.parent_edge.(w) = e
    in
    let rank = ref 0 and t = ref 0 in
    for k = 1 to deg do
      let d = rotation.((start + k) mod deg) in
      let pd_skip =
        tree.Traversal.parent.(v) >= 0
        && Planarity.Rotation.edge_of_dart d = tree.Traversal.parent_edge.(v)
      in
      if not pd_skip then
        if is_child_dart d then begin
          incr rank;
          t := 0;
          f d !rank 0
        end
        else begin
          incr t;
          f d !rank !t
        end
    done
  end

(* The same walk on a plain neighbor-id rotation (used by the distributed
   Stage II, where each node holds its rotation as neighbor ids): calls
   [f nbr rank t]. *)
let scan_neighbor_rotation ~rotation ~parent ~children f =
  let deg = Array.length rotation in
  if deg > 0 then begin
    let start =
      if parent >= 0 then begin
        let idx = ref (-1) in
        Array.iteri (fun i w -> if w = parent then idx := i) rotation;
        assert (!idx >= 0);
        !idx
      end
      else deg
    in
    let rank = ref 0 and t = ref 0 in
    for k = 1 to deg do
      let w = rotation.((start + k) mod deg) in
      if w <> parent then
        if List.mem w children then begin
          incr rank;
          t := 0;
          f w !rank 0
        end
        else begin
          incr t;
          f w !rank !t
        end
    done
  end

let labels g tree rot =
  let n = Graph.n g in
  let out = Array.make n [] in
  Array.iter
    (fun v ->
      scan_rotation g tree rot v (fun d rank t ->
          if t = 0 then begin
            let e = Planarity.Rotation.edge_of_dart d in
            let w = Graph.other_endpoint g e v in
            out.(w) <- out.(v) @ [ rank ]
          end))
    tree.Traversal.order
  |> fun () -> out

(* Corner key of a non-tree dart (v -> w): the vertex label of [v] extended
   by the corner it sits in — [rank] children passed, the global infinity
   symbol (any value exceeding every child rank; one reserved symbol on the
   wire), and the position within the corner.  The infinity symbol makes
   the corner sort after the entire subtree of child [rank], aligning keys
   of corners at different tree depths.  Keys then order exactly like the
   attachment points on the contour (Euler tour) of the embedded tree,
   which is what the Claim 8/10 proofs need; the paper's vertex-level
   labels admit false positives on planar inputs (see DESIGN.md). *)
let infinity_symbol g = (2 * Graph.n g) + 1

let corner_key g tree rot lab v =
  let inf = infinity_symbol g in
  let keys = Hashtbl.create 4 in
  scan_rotation g tree rot v (fun d rank t ->
      if t > 0 then
        Hashtbl.replace keys
          (Planarity.Rotation.edge_of_dart d)
          (lab.(v) @ [ rank; inf; t ]));
  keys

let non_tree_edges g (tree : Traversal.bfs_tree) =
  Graph.fold_edges
    (fun acc e u v ->
      let is_tree =
        (tree.Traversal.parent.(u) = v && tree.Traversal.parent_edge.(u) = e)
        || (tree.Traversal.parent.(v) = u && tree.Traversal.parent_edge.(v) = e)
      in
      if is_tree then acc else e :: acc)
    [] g

(* Sorted corner-key pairs of every non-tree edge. *)
let edge_keys g tree rot =
  let lab = labels g tree rot in
  let per_vertex = Hashtbl.create 64 in
  let key_at v e =
    let keys =
      match Hashtbl.find_opt per_vertex v with
      | Some k -> k
      | None ->
          let k = corner_key g tree rot lab v in
          Hashtbl.add per_vertex v k;
          k
    in
    Hashtbl.find keys e
  in
  List.map
    (fun e ->
      let u, v = Graph.edge g e in
      let ku = key_at u e and kv = key_at v e in
      (e, if compare_label ku kv <= 0 then (ku, kv) else (kv, ku)))
    (non_tree_edges g tree)

let sort_pair (a, b) = if compare_label a b <= 0 then (a, b) else (b, a)

let intersects p q =
  let la, lb = sort_pair p in
  let lc, ld = sort_pair q in
  let (la, lb), (lc, ld) =
    if compare_label la lc <= 0 then ((la, lb), (lc, ld))
    else ((lc, ld), (la, lb))
  in
  compare_label la lc < 0
  && compare_label lc lb < 0
  && compare_label lb ld < 0

let violating_edges g tree rot =
  let keyed = Array.of_list (edge_keys g tree rot) in
  let k = Array.length keyed in
  let bad = Array.make k false in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if
        (not (bad.(i) && bad.(j)))
        && intersects (snd keyed.(i)) (snd keyed.(j))
      then begin
        bad.(i) <- true;
        bad.(j) <- true
      end
    done
  done;
  let acc = ref [] in
  for i = k - 1 downto 0 do
    if bad.(i) then acc := fst keyed.(i) :: !acc
  done;
  !acc

let count_violating g =
  if Graph.n g = 0 then 0
  else begin
    let tree = Traversal.bfs g 0 in
    let rot, _ = Planarity.Lr.embed_or_adjacency g in
    List.length (violating_edges g tree rot)
  end

(* The paper's original vertex-level rule, kept for the ablation that
   motivates the corner refinement: compare endpoint labels only. *)
let violating_edges_vertex_labels g tree rot =
  let lab = labels g tree rot in
  let nts = Array.of_list (non_tree_edges g tree) in
  let pairs =
    Array.map
      (fun e ->
        let u, v = Graph.edge g e in
        sort_pair (lab.(u), lab.(v)))
      nts
  in
  let k = Array.length nts in
  let bad = Array.make k false in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if (not (bad.(i) && bad.(j))) && intersects pairs.(i) pairs.(j) then begin
        bad.(i) <- true;
        bad.(j) <- true
      end
    done
  done;
  let acc = ref [] in
  for i = k - 1 downto 0 do
    if bad.(i) then acc := nts.(i) :: !acc
  done;
  !acc

let count_violating_vertex_labels g =
  if Graph.n g = 0 then 0
  else begin
    let tree = Traversal.bfs g 0 in
    let rot, _ = Planarity.Lr.embed_or_adjacency g in
    List.length (violating_edges_vertex_labels g tree rot)
  end
