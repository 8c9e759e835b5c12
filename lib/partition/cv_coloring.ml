(* Bits needed to write any color in [0, u): ceil (log2 u). *)
let bits_for u =
  let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr 1) in
  count 0 (max (u - 1) 1)

let iterations_for n =
  let rec go acc u = if u <= 6 then acc else go (acc + 1) (2 * bits_for u) in
  go 0 (max n 2)

let steps_for n = iterations_for n + 6

(* Lowest bit position at which [a] and [b] differ. *)
let lowest_diff a b =
  let x = a lxor b in
  let rec go k v = if v land 1 = 1 then k else go (k + 1) (v lsr 1) in
  go 0 x

let cv_step own parent =
  assert (own <> parent);
  let k = lowest_diff own parent in
  (2 * k) + ((own lsr k) land 1)

(* One color exchange: every member learns its part color; every root
   learns its F-parent part's current color (or -1). *)
let exchange st ~budget ~tag =
  Prims.bcast st ~budget ~tag:(tag * 3)
    ~at_root:(fun nd -> Some [ nd.State.color ])
    ~on_receive:(fun nd pl ->
      match pl with [ c ] -> nd.State.color <- c | _ -> assert false);
  Array.iter
    (fun nd -> if State.is_root st nd.State.id then nd.State.parent_color <- -1)
    st.State.nodes;
  Prims.boundary st
    ~tag:((tag * 3) + 1)
    ~payload:(fun nd -> Some [ nd.State.color ])
    ~on_receive:(fun nd ~nbr pl ->
      match pl with
      | [ c ] ->
          if nd.State.charge_node = nd.State.id && nbr = nd.State.charge_nbr
          then nd.State.scratch <- c
      | _ -> assert false);
  Prims.converge st ~budget
    ~tag:((tag * 3) + 2)
    ~init:(fun nd ->
      if nd.State.charge_node = nd.State.id then Some nd.State.scratch else None)
    ~combine:(fun a b -> if a = None then b else a)
    ~encode:(function None -> [] | Some c -> [ c ])
    ~decode:(function [] -> None | [ c ] -> Some c | _ -> assert false)
    ~at_root:(fun nd v ->
      match v with Some c -> nd.State.parent_color <- c | None -> ())

let mex forbidden =
  let rec go c = if List.mem c forbidden then go (c + 1) else c in
  let r = go 0 in
  assert (r <= 2);
  r

let run st ~budget =
  let n = Graphlib.Graph.n st.State.graph in
  let roots =
    Array.to_list st.State.nodes
    |> List.filter (fun nd -> State.is_root st nd.State.id)
  in
  (* Initial colors: part root ids. *)
  List.iter (fun nd -> nd.State.color <- nd.State.id) roots;
  let tag = ref 2000 in
  let next_tag () =
    incr tag;
    !tag
  in
  (* Bit-shrinking iterations. *)
  for _ = 1 to iterations_for n do
    exchange st ~budget ~tag:(next_tag ());
    List.iter
      (fun nd ->
        let parent =
          if nd.State.fsel_target = -1 then nd.State.color lxor 1
          else nd.State.parent_color
        in
        nd.State.color <- cv_step nd.State.color parent)
      roots
  done;
  List.iter (fun nd -> assert (nd.State.color < 6)) roots;
  (* Three shift-down + recolor steps collapse {3, 4, 5}. *)
  List.iter
    (fun c ->
      exchange st ~budget ~tag:(next_tag ());
      List.iter
        (fun nd ->
          nd.State.scratch2 <- nd.State.color;
          (* prev = children's color after the shift *)
          nd.State.color <-
            (if nd.State.fsel_target = -1 then (nd.State.color + 1) mod 3
             else nd.State.parent_color))
        roots;
      exchange st ~budget ~tag:(next_tag ());
      List.iter
        (fun nd ->
          if nd.State.color = c then begin
            let forbidden =
              nd.State.scratch2
              ::
              (if nd.State.fsel_target = -1 then [] else [ nd.State.parent_color ])
            in
            nd.State.color <- mex forbidden
          end)
        roots)
    [ 5; 4; 3 ];
  (* Final propagation: every member and every root's parent_color now
     reflect the final {0,1,2} coloring, remapped to {1,2,3}. *)
  exchange st ~budget ~tag:(next_tag ());
  Array.iter
    (fun nd ->
      nd.State.color <- nd.State.color + 1;
      if State.is_root st nd.State.id && nd.State.fsel_target >= 0 then
        nd.State.parent_color <- nd.State.parent_color + 1)
    st.State.nodes
