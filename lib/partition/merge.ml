let max_tree_height = 12

let roots_of st =
  Array.to_list st.State.nodes
  |> List.filter (fun nd -> State.is_root st nd.State.id)

let reset_phase_fields st =
  Array.iter
    (fun nd ->
      nd.State.fsel_target <- -1;
      nd.State.fsel_weight <- 0;
      nd.State.charge_node <- -1;
      nd.State.charge_nbr <- -1;
      nd.State.charge_weight <- 0;
      nd.State.color <- 0;
      nd.State.parent_color <- -1;
      nd.State.out_marked <- false;
      nd.State.bdry_children <- [];
      nd.State.tlevel <- -1;
      nd.State.w0 <- 0;
      nd.State.w1 <- 0;
      nd.State.tbit <- -1;
      nd.State.contract <- false;
      nd.State.scratch <- -1;
      nd.State.scratch2 <- -1;
      nd.State.scratch_list <- [])
    st.State.nodes

let select_heaviest st =
  Array.iter
    (fun nd ->
      let best =
        List.fold_left
          (fun acc (r, w) ->
            match acc with
            | None -> Some (r, w)
            | Some (r', w') -> if w > w' || (w = w' && r < r') then Some (r, w) else acc)
          None nd.State.out_edges
      in
      match best with
      | Some (r, w) ->
          nd.State.fsel_target <- r;
          nd.State.fsel_weight <- w
      | None -> ())
    st.State.nodes

(* Sub-step 1 (second half): elect the designated node u_i^j in charge of
   the selected out-edge, and its cross neighbor v_i^j. *)
let designate st ~budget =
  (* Every member learns the part's target and selected weight. *)
  Array.iter (fun nd -> nd.State.scratch <- -1) st.State.nodes;
  Prims.bcast st ~budget ~tag:3001
    ~at_root:(fun nd ->
      if nd.State.fsel_target >= 0 then
        Some [ nd.State.fsel_target; nd.State.fsel_weight ]
      else None)
    ~on_receive:(fun nd pl ->
      match pl with
      | [ t; w ] ->
          nd.State.scratch <- t;
          nd.State.scratch2 <- w
      | _ -> assert false);
  (* Minimum-id candidate with a neighbor in the target part. *)
  let candidate nd =
    nd.State.scratch >= 0
    && Array.exists (fun r -> r = nd.State.scratch) nd.State.nbr_root
  in
  Prims.converge st ~budget ~tag:3002
    ~init:(fun nd -> if candidate nd then nd.State.id else max_int)
    ~combine:min
    ~encode:(fun v -> [ v ])
    ~decode:(function [ v ] -> v | _ -> assert false)
    ~at_root:(fun nd v ->
      if nd.State.fsel_target >= 0 then begin
        if v = max_int then
          failwith "Merge.designate: no candidate for a selected out-edge";
        nd.State.charge_node <- v
      end);
  (* Announce the elected node; it picks the concrete cross edge. *)
  Prims.bcast st ~budget ~tag:3003
    ~at_root:(fun nd ->
      if nd.State.fsel_target >= 0 then Some [ nd.State.charge_node ] else None)
    ~on_receive:(fun nd pl ->
      match pl with
      | [ u ] ->
          if u = nd.State.id then begin
            nd.State.charge_node <- nd.State.id;
            nd.State.charge_weight <- nd.State.scratch2;
            let best = ref max_int in
            Array.iteri
              (fun port r ->
                if r = nd.State.scratch then
                  let nbr, _ =
                    (Graphlib.Graph.incident st.State.graph nd.State.id).(port)
                  in
                  if nbr < !best then best := nbr)
              nd.State.nbr_root;
            assert (!best < max_int);
            nd.State.charge_nbr <- !best
          end
      | _ -> assert false)

let is_charge (nd : State.node) = nd.State.charge_node = nd.State.id

(* [Prims.boundary] filter: only the designated cross edge.  A node that
   is not a charge node has no payload for it. *)
let on_charge_edge (nd : State.node) nbr = nbr = nd.State.charge_nbr

(* Walks rather than [List.exists] / [List.iter] over a closure: the
   filter runs once per cut port and the updates once per delivery,
   where a closure per call would be the allocation. *)
let rec marked_in u = function
  | [] -> false
  | (e : State.bdry_child) :: rest ->
      (e.State.marked && e.State.child = u) || marked_in u rest

(* Whether the designated edge from child charge node [u] got marked;
   also a [Prims.boundary] filter. *)
let marked_child (nd : State.node) u = marked_in u nd.State.bdry_children

(* In place, on every entry of child charge node [u]: [bdry_children]
   keeps its order and every other entry. *)
let rec set_child_color u c = function
  | [] -> ()
  | (e : State.bdry_child) :: rest ->
      if e.State.child = u then e.State.child_color <- c;
      set_child_color u c rest

let rec mark_child u = function
  | [] -> ()
  | (e : State.bdry_child) :: rest ->
      if e.State.child = u then e.State.marked <- true;
      mark_child u rest

(* Announce designated edges across the cut, populate [bdry_children] on
   the parent side, and resolve mutual (2-cycle) selections by dropping the
   higher root's edge — only the randomized variant can produce them. *)
let announce_and_resolve st ~budget =
  Array.iter (fun nd -> nd.State.w0 <- 0) st.State.nodes;
  (* w0 reused briefly as a "my part must drop" flag accumulator. *)
  Prims.boundary st ~tag:3004 ~to_nbr:on_charge_edge
    ~payload:(fun nd ->
      if is_charge nd then Some [ nd.State.part_root; nd.State.charge_weight ]
      else None)
    ~on_receive:(fun nd ~nbr pl ->
      match pl with
      | [ croot; w ] ->
          let my_target = nd.State.scratch in
          let mutual = croot = my_target in
          if mutual && croot > nd.State.part_root then
            (* The child's selection is the dropped side of a 2-cycle. *)
            ()
          else begin
            nd.State.bdry_children <-
              {
                State.child = nbr;
                child_root = croot;
                weight = w;
                child_color = 0;
                marked = false;
              }
              :: nd.State.bdry_children;
            if mutual && croot < nd.State.part_root then
              (* Our own selection is the dropped side. *)
              nd.State.w0 <- 1
          end
      | _ -> assert false);
  Prims.converge st ~budget ~tag:3005
    ~init:(fun nd -> nd.State.w0)
    ~combine:max
    ~encode:(fun v -> [ v ])
    ~decode:(function [ v ] -> v | _ -> assert false)
    ~at_root:(fun nd drop ->
      if drop = 1 then begin
        nd.State.fsel_target <- -1;
        nd.State.fsel_weight <- 0;
        nd.State.charge_node <- -1
      end);
  (* Tell the members (the charge node must stand down). *)
  Prims.bcast st ~budget ~tag:3006
    ~at_root:(fun nd -> Some [ (if nd.State.fsel_target >= 0 then 1 else 0) ])
    ~on_receive:(fun nd pl ->
      match pl with
      | [ 0 ] ->
          nd.State.scratch <- -1;
          if is_charge nd then begin
            nd.State.charge_node <- -1;
            nd.State.charge_nbr <- -1
          end
      | [ 1 ] -> ()
      | _ -> assert false);
  Array.iter (fun nd -> nd.State.w0 <- 0) st.State.nodes

(* CHW marking rules (Sub-step 2b). *)
let marking st ~budget =
  (* Children report their final color across the designated edges. *)
  Prims.boundary st ~tag:4001 ~to_nbr:on_charge_edge
    ~payload:(fun nd -> if is_charge nd then Some [ nd.State.color ] else None)
    ~on_receive:(fun nd ~nbr pl ->
      match pl with
      | [ c ] -> set_child_color nbr c nd.State.bdry_children
      | _ -> assert false);
  (* Sum incoming weights per child color class up to the root. *)
  let add (a1, a2, a3) (b1, b2, b3) = (a1 + b1, a2 + b2, a3 + b3) in
  Prims.converge st ~budget ~tag:4002
    ~init:(fun nd ->
      List.fold_left
        (fun acc { State.weight = w; child_color = c; _ } ->
          match c with
          | 1 -> add acc (w, 0, 0)
          | 2 -> add acc (0, w, 0)
          | 3 -> add acc (0, 0, w)
          | _ -> failwith "Merge.marking: child color missing")
        (0, 0, 0) nd.State.bdry_children)
    ~combine:add
    ~encode:(fun (a, b, c) -> [ a; b; c ])
    ~decode:(function [ a; b; c ] -> (a, b, c) | _ -> assert false)
    ~at_root:(fun nd (s1, s2, s3) ->
      let has_out = nd.State.fsel_target >= 0 in
      let w_out = nd.State.fsel_weight in
      let mark_out, in_rule =
        match nd.State.color with
        | 1 ->
            if has_out && w_out >= s1 + s2 + s3 then (true, 0)
            else (false, 1 (* mark all incoming *))
        | 2 ->
            if has_out && nd.State.parent_color = 3 && w_out >= s3 then (true, 0)
            else (false, 2 (* mark incoming from color-3 children *))
        | 3 -> (false, 0)
        | _ -> failwith "Merge.marking: part color out of range"
      in
      nd.State.out_marked <- mark_out;
      nd.State.tbit <- in_rule (* reuse tbit as in-rule transport *));
  (* Roots announce (own-out-marked, in-rule); boundary nodes apply the
     in-rule to their child edges and charge nodes notify the parent side. *)
  Prims.bcast st ~budget ~tag:4003
    ~at_root:(fun nd ->
      Some [ (if nd.State.out_marked then 1 else 0); nd.State.tbit ])
    ~on_receive:(fun nd pl ->
      match pl with
      | [ om; rule ] ->
          if is_charge nd then nd.State.out_marked <- om = 1;
          List.iter
            (fun (e : State.bdry_child) ->
              if rule = 1 || (rule = 2 && e.State.child_color = 3) then
                e.State.marked <- true)
            nd.State.bdry_children
      | _ -> assert false);
  (* Cross-edge notifications: child-marked (u -> v) and parent-marked
     (v -> u). *)
  Prims.wave st ~budget:1
    ~start:(fun send nd ->
      if is_charge nd && nd.State.out_marked then
        send ~dest:nd.State.charge_nbr (Msg.Bdry (4004, [ 1 ]));
      List.iter
        (fun (e : State.bdry_child) ->
          if e.State.marked then send ~dest:e.State.child (Msg.Bdry (4004, [ 2 ])))
        nd.State.bdry_children)
    ~receive:(fun _ nd ~from msg ->
      match msg with
      | Msg.Bdry (4004, [ 1 ]) -> mark_child from nd.State.bdry_children
      | Msg.Bdry (4004, [ 2 ]) ->
          assert (is_charge nd);
          nd.State.out_marked <- true
      | _ -> assert false);
  (* The root learns whether the parent marked our out-edge. *)
  Prims.converge st ~budget ~tag:4005
    ~init:(fun nd -> if is_charge nd && nd.State.out_marked then 1 else 0)
    ~combine:max
    ~encode:(fun v -> [ v ])
    ~decode:(function [ v ] -> v | _ -> assert false)
    ~at_root:(fun nd v -> if v = 1 then nd.State.out_marked <- true)

(* Levels within the marked shallow trees, then even/odd weight sums up and
   the contraction decision down (Sub-step 3). *)
let levels_and_decision st ~budget =
  Array.iter
    (fun nd ->
      nd.State.tlevel <- -1;
      nd.State.w0 <- 0;
      nd.State.w1 <- 0;
      nd.State.tbit <- -1)
    st.State.nodes;
  List.iter
    (fun nd -> if not nd.State.out_marked then nd.State.tlevel <- 0)
    (roots_of st);
  (* Levels flow down the marked trees, one part-layer per iteration. *)
  for step = 0 to max_tree_height do
    Array.iter (fun nd -> nd.State.scratch <- -1) st.State.nodes;
    Prims.bcast st ~budget
      ~tag:(5000 + (step * 10))
      ~at_root:(fun nd ->
        if nd.State.tlevel = step then Some [ step ] else None)
      ~on_receive:(fun nd pl ->
        match pl with [ l ] -> nd.State.tlevel <- l | _ -> assert false);
    Prims.boundary st
      ~tag:(5001 + (step * 10))
      ~to_nbr:marked_child
      ~payload:(fun nd ->
        if nd.State.tlevel = step then Some [ step + 1 ] else None)
      ~on_receive:(fun nd ~nbr pl ->
        match pl with
        | [ l ] ->
            if is_charge nd && nbr = nd.State.charge_nbr then
              nd.State.scratch <- l
        | _ -> assert false);
    Prims.converge st ~budget
      ~tag:(5002 + (step * 10))
      ~init:(fun nd ->
        if is_charge nd && nd.State.out_marked && nd.State.scratch >= 0 then
          nd.State.scratch
        else -1)
      ~combine:max
      ~encode:(fun v -> [ v ])
      ~decode:(function [ v ] -> v | _ -> assert false)
      ~at_root:(fun nd v ->
        if nd.State.tlevel = -1 && v >= 0 then nd.State.tlevel <- v)
  done;
  List.iter
    (fun nd ->
      if nd.State.tlevel = -1 then
        failwith
          "Merge.levels: marked tree deeper than the CHW height bound")
    (roots_of st);
  (* Weight sums travel up the marked trees, deepest layer first. *)
  for step = max_tree_height + 1 downto 1 do
    Array.iter (fun nd -> nd.State.scratch <- -1; nd.State.scratch2 <- -1)
      st.State.nodes;
    Prims.bcast st ~budget
      ~tag:(5500 + (step * 10))
      ~at_root:(fun nd ->
        if nd.State.tlevel = step && nd.State.out_marked then begin
          let w0, w1 =
            if nd.State.tlevel mod 2 = 0 then
              (nd.State.w0 + nd.State.fsel_weight, nd.State.w1)
            else (nd.State.w0, nd.State.w1 + nd.State.fsel_weight)
          in
          Some [ w0; w1 ]
        end
        else None)
      ~on_receive:(fun nd pl ->
        match pl with
        | [ w0; w1 ] ->
            if is_charge nd then begin
              nd.State.scratch <- w0;
              nd.State.scratch2 <- w1
            end
        | _ -> assert false);
    Prims.boundary st
      ~tag:(5501 + (step * 10))
      ~to_nbr:on_charge_edge
      ~payload:(fun nd ->
        if is_charge nd && nd.State.scratch >= 0 then
          Some [ nd.State.scratch; nd.State.scratch2 ]
        else None)
      ~on_receive:(fun nd ~nbr pl ->
        match pl with
        | [ w0; w1 ] ->
            if marked_child nd nbr then begin
              nd.State.w0 <- nd.State.w0 + w0;
              nd.State.w1 <- nd.State.w1 + w1
            end
        | _ -> assert false);
    Prims.converge st ~budget
      ~tag:(5502 + (step * 10))
      ~init:(fun nd ->
        if State.is_root st nd.State.id then (0, 0) else (nd.State.w0, nd.State.w1))
      ~combine:(fun (a0, a1) (b0, b1) -> (a0 + b0, a1 + b1))
      ~encode:(fun (a, b) -> [ a; b ])
      ~decode:(function [ a; b ] -> (a, b) | _ -> assert false)
      ~at_root:(fun nd (w0, w1) ->
        nd.State.w0 <- nd.State.w0 + w0;
        nd.State.w1 <- nd.State.w1 + w1);
    (* Non-root members hand their accumulators upward, so clear them. *)
    Array.iter
      (fun nd ->
        if not (State.is_root st nd.State.id) then begin
          nd.State.w0 <- 0;
          nd.State.w1 <- 0
        end)
      st.State.nodes
  done;
  (* T-roots decide; the bit flows down the marked trees. *)
  List.iter
    (fun nd ->
      if nd.State.tlevel = 0 then
        nd.State.tbit <- (if nd.State.w0 > nd.State.w1 then 0 else 1))
    (roots_of st);
  for step = 0 to max_tree_height do
    Array.iter
      (fun nd ->
        nd.State.scratch <- -1;
        nd.State.scratch2 <- -1)
      st.State.nodes;
    Prims.bcast st ~budget
      ~tag:(6000 + (step * 10))
      ~at_root:(fun nd ->
        if nd.State.tlevel = step && nd.State.tbit >= 0 then
          Some [ nd.State.tbit ]
        else None)
      ~on_receive:(fun nd pl ->
        match pl with [ b ] -> nd.State.scratch <- b | _ -> assert false);
    Prims.boundary st
      ~tag:(6001 + (step * 10))
      ~to_nbr:marked_child
      ~payload:(fun nd ->
        if nd.State.scratch >= 0 && nd.State.tlevel = step then
          Some [ nd.State.scratch ]
        else None)
      ~on_receive:(fun nd ~nbr pl ->
        match pl with
        | [ b ] ->
            if is_charge nd && nbr = nd.State.charge_nbr then
              nd.State.scratch2 <- b
        | _ -> assert false);
    Prims.converge st ~budget
      ~tag:(6002 + (step * 10))
      ~init:(fun nd ->
        if is_charge nd && nd.State.out_marked then nd.State.scratch2 else -1)
      ~combine:max
      ~encode:(fun v -> [ v ])
      ~decode:(function [ v ] -> v | _ -> assert false)
      ~at_root:(fun nd v -> if nd.State.tbit = -1 && v >= 0 then nd.State.tbit <- v)
  done;
  (* Contraction flag: our out-edge parity matches the tree's decision. *)
  List.iter
    (fun nd ->
      if nd.State.out_marked && nd.State.tlevel >= 1 then begin
        if nd.State.tbit < 0 then
          failwith "Merge.decision: no contraction bit reached a marked part";
        let even_edge = nd.State.tlevel mod 2 = 0 in
        nd.State.contract <-
          (even_edge && nd.State.tbit = 0) || ((not even_edge) && nd.State.tbit = 1)
      end)
    (roots_of st)

(* Star contraction (Sub-step 4 / Section 2.1.6 "Contracting edges"). *)
let contract st ~budget =
  (* Members learn whether their part contracts. *)
  Array.iter (fun nd -> nd.State.scratch <- 0) st.State.nodes;
  Prims.bcast st ~budget ~tag:7001
    ~at_root:(fun nd -> Some [ (if nd.State.contract then 1 else 0) ])
    ~on_receive:(fun nd pl ->
      match pl with [ b ] -> nd.State.scratch <- b | _ -> assert false);
  (* The charge node reports the new root id up the old tree. *)
  Prims.converge st ~budget ~tag:7002
    ~init:(fun nd ->
      if nd.State.scratch = 1 && is_charge nd then begin
        let port = ref (-1) in
        Array.iteri
          (fun i (nbr, _) ->
            if nbr = nd.State.charge_nbr then port := i)
          (Graphlib.Graph.incident st.State.graph nd.State.id);
        assert (!port >= 0);
        nd.State.nbr_root.(!port)
      end
      else -1)
    ~combine:max
    ~encode:(fun v -> [ v ])
    ~decode:(function [ v ] -> v | _ -> assert false)
    ~at_root:(fun nd v -> if nd.State.contract then nd.State.scratch2 <- v);
  (* Everyone in a contracting part adopts the new root id. *)
  Prims.bcast st ~budget ~tag:7003
    ~at_root:(fun nd ->
      if nd.State.contract then begin
        assert (nd.State.scratch2 >= 0);
        Some [ nd.State.scratch2 ]
      end
      else None)
    ~on_receive:(fun nd pl ->
      match pl with [ r ] -> nd.State.part_root <- r | _ -> assert false);
  (* Flip the tree path from the charge node to the old root, and hook the
     charge node across the cut. *)
  let forward_flip send dest = send ~dest (Msg.Bdry (7004, [])) in
  Prims.wave st ~budget
    ~start:(fun send nd ->
      if nd.State.scratch = 1 && is_charge nd then begin
        let old_parent = nd.State.parent in
        nd.State.parent <- nd.State.charge_nbr;
        if old_parent >= 0 then begin
          nd.State.children <- old_parent :: nd.State.children;
          forward_flip send old_parent
        end
      end)
    ~receive:(fun send nd ~from msg ->
      match msg with
      | Msg.Bdry (7004, []) ->
          let old_parent = nd.State.parent in
          nd.State.children <-
            List.filter (fun c -> c <> from) nd.State.children;
          nd.State.parent <- from;
          if old_parent >= 0 then begin
            nd.State.children <- old_parent :: nd.State.children;
            forward_flip send old_parent
          end
      | _ -> assert false);
  (* Attach: the parent-side endpoints adopt the charge nodes as children. *)
  Prims.wave st ~budget:1
    ~start:(fun send nd ->
      if nd.State.scratch = 1 && is_charge nd then
        send ~dest:nd.State.charge_nbr (Msg.Bdry (7005, [])))
    ~receive:(fun _ nd ~from msg ->
      match msg with
      | Msg.Bdry (7005, []) -> nd.State.children <- from :: nd.State.children
      | _ -> assert false)

let run_after_selection st ~budget =
  designate st ~budget;
  announce_and_resolve st ~budget;
  Cv_coloring.run st ~budget;
  marking st ~budget;
  levels_and_decision st ~budget;
  contract st ~budget

let run st ~budget =
  reset_phase_fields st;
  select_heaviest st;
  run_after_selection st ~budget
