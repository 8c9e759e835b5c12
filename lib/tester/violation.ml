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

(* Crossing index over a set of label pairs (Definition 7 against a
   fixed sample).  After [sort_pair], a query [(c, d)] intersects a pair
   [(a, b)] iff [c < a < d < b] or [a < c < b < d]: among the pairs whose
   lower label lies strictly inside [(c, d)] some upper label is above
   [d], or among those whose upper label does some lower label is below
   [c].  Each is two binary searches and a sparse-table range max (min),
   so a query costs O(log k) label comparisons instead of k calls to
   [intersects]. *)
let above x y = compare_label x y > 0
let below x y = compare_label x y < 0

(* Pairs sorted by [key]; [best.(j).(i)] is the [better]-most [other]
   endpoint over the pairs [i .. i + 2^j - 1]. *)
type side = { keys : label array; best : label array array }

let side key other better pairs =
  let a = Array.of_list pairs in
  Array.sort (fun p q -> compare_label (key p) (key q)) a;
  let rec levels prev width acc =
    let len = Array.length prev - width in
    if len <= 0 then Array.of_list (List.rev acc)
    else
      let next =
        Array.init len (fun i ->
            let x = prev.(i) and y = prev.(i + width) in
            if better x y then x else y)
      in
      levels next (2 * width) (next :: acc)
  in
  let others = Array.map other a in
  { keys = Array.map key a; best = levels others 1 [ others ] }

type crossing = { by_lo : side; by_hi : side }

let crossing_index pairs =
  let pairs = List.map sort_pair pairs in
  { by_lo = side fst snd above pairs; by_hi = side snd fst below pairs }

(* Is some pair whose key lies strictly inside [(c, d)] [better] than
   [past] at its other endpoint? *)
let beyond s better ~c ~d ~past =
  let rec search ok lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ok s.keys.(mid) then search ok (mid + 1) hi else search ok lo mid
  in
  let n = Array.length s.keys in
  let l = search (fun k -> not (above k c)) 0 n in
  let r = search (fun k -> below k d) l n in
  let rec level j = if 2 lsl j > r - l then j else level (j + 1) in
  l < r
  &&
  let j = level 0 in
  better s.best.(j).(l) past || better s.best.(j).(r - (1 lsl j)) past

let crosses ix q =
  let c, d = sort_pair q in
  beyond ix.by_lo above ~c ~d ~past:d || beyond ix.by_hi below ~c ~d ~past:c

(* The ids of the pairs that intersect some other pair. *)
let crossing_ids keyed =
  let ix = crossing_index (List.map snd keyed) in
  List.filter_map (fun (id, p) -> if crosses ix p then Some id else None) keyed

let violating_edges g tree rot = crossing_ids (edge_keys g tree rot)

let count_with violating g =
  if Graph.n g = 0 then 0
  else begin
    let tree = Traversal.bfs g 0 in
    let rot, _ = Planarity.Lr.embed_or_adjacency g in
    List.length (violating g tree rot)
  end

let count_violating g = count_with violating_edges g

(* The paper's original vertex-level rule, kept for the ablation that
   motivates the corner refinement: compare endpoint labels only. *)
let violating_edges_vertex_labels g tree rot =
  let lab = labels g tree rot in
  crossing_ids
    (List.map
       (fun e ->
         let u, v = Graph.edge g e in
         (e, sort_pair (lab.(u), lab.(v))))
       (non_tree_edges g tree))

let count_violating_vertex_labels g =
  count_with violating_edges_vertex_labels g
