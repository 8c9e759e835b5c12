open Graphlib
module S = Partition.State
module P = Partition.Prims
module M = Partition.Msg

type part = {
  root : int;
  sub : Graph.t;
  back : int array;
  ecc : int;
}

type t = {
  dist : int array;
  nbr_level : (int * int) list array;
  depth_bound : int;
  parts : part list;
}

let iter_intra st (nd : S.node) f =
  Array.iteri
    (fun port (nbr, _) ->
      if nd.S.nbr_root.(port) = nd.S.part_root then f port nbr)
    (Graph.incident st.S.graph nd.S.id)

let build st =
  let g = st.S.graph in
  let n = Graph.n g in
  P.refresh_roots st;
  let parts =
    List.map
      (fun (root, members) ->
        let sub, back = Graph.induced g members in
        let local_root = ref (-1) in
        Array.iteri (fun i v -> if v = root then local_root := i) back;
        { root; sub; back; ecc = Traversal.eccentricity sub !local_root })
      (S.parts st)
  in
  let depth_bound = List.fold_left (fun acc p -> max acc p.ecc) 1 parts in
  let budget = depth_bound + 2 in
  Array.iter
    (fun nd ->
      nd.S.parent <- -1;
      nd.S.children <- [])
    st.S.nodes;
  let dist = Array.make n (-1) in
  let send_intra send nd msg = iter_intra st nd (fun _ nbr -> send ~dest:nbr msg) in
  P.wave st ~budget
    ~start:(fun send nd ->
      if S.is_root st nd.S.id then begin
        dist.(nd.S.id) <- 0;
        send_intra send nd (M.Bdry (81, [ 0 ]))
      end)
    ~receive:(fun send nd ~from msg ->
      match msg with
      | M.Bdry (81, [ d ]) ->
          if nd.S.parent = -1 && not (S.is_root st nd.S.id) then begin
            nd.S.parent <- from;
            dist.(nd.S.id) <- d + 1;
            send ~dest:from (M.Bdry (82, []));
            send_intra send nd (M.Bdry (81, [ d + 1 ]))
          end
      | M.Bdry (82, []) -> nd.S.children <- from :: nd.S.children
      | _ -> assert false);
  let nbr_level = Array.make n [] in
  P.wave st ~budget:1
    ~start:(fun send nd -> send_intra send nd (M.Bdry (83, [ dist.(nd.S.id) ])))
    ~receive:(fun _ nd ~from msg ->
      match msg with
      | M.Bdry (83, [ d ]) ->
          nbr_level.(nd.S.id) <- (from, d) :: nbr_level.(nd.S.id)
      | _ -> assert false);
  { dist; nbr_level; depth_bound; parts }

let is_tree_edge st v w =
  let nd = S.node st v in
  nd.S.parent = w || List.mem w nd.S.children

let assigned_to t st v w =
  ignore st;
  let dw = List.assoc w t.nbr_level.(v) in
  t.dist.(v) > dw || (t.dist.(v) = dw && v > w)

let at_root a root =
  match a.(root) with Some x -> x | None -> raise Not_found
