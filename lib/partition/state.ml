open Graphlib

module Eng = Congest.Engine.Make (Msg)

type bdry_child = {
  child : int;
  child_root : int;
  weight : int;
  mutable child_color : int;
  mutable marked : bool;
}

type node = {
  id : int;
  mutable part_root : int;
  mutable parent : int;
  mutable children : int list;
  mutable nbr_root : int array;
  mutable active : bool;
  mutable deact_round : int;
  mutable snapshot : (int * int) list;
  mutable out_edges : (int * int) list;
  mutable fsel_target : int;
  mutable fsel_weight : int;
  mutable charge_node : int;
  mutable charge_nbr : int;
  mutable charge_weight : int;
  mutable color : int;
  mutable parent_color : int;
  mutable out_marked : bool;
  mutable bdry_children : bdry_child list;
  mutable tlevel : int;
  mutable w0 : int;
  mutable w1 : int;
  mutable tbit : int;
  mutable contract : bool;
  mutable scratch : int;
  mutable scratch2 : int;
  mutable scratch_list : (int * int) list;
}

type t = {
  graph : Graph.t;
  nodes : node array;
  stats : Congest.Stats.t;
  pool : Eng.pool;
  mutable rejections : (int * string) list;
  mutable nominal_rounds : int;
  mutable telemetry : Congest.Telemetry.t option;
  mutable trace : Congest.Trace.t option;
  mutable domains : int;
  mutable fast_forward : bool;
  mutable faults : Congest.Faults.policy option;
  mutable on_round : (int -> unit) option;
  converge_left : int array;
}

let create g =
  let make_node v =
    {
      id = v;
      part_root = v;
      parent = -1;
      children = [];
      nbr_root = Array.map fst (Graph.incident g v);
      active = true;
      deact_round = -1;
      snapshot = [];
      out_edges = [];
      fsel_target = -1;
      fsel_weight = 0;
      charge_node = -1;
      charge_nbr = -1;
      charge_weight = 0;
      color = 0;
      parent_color = -1;
      out_marked = false;
      bdry_children = [];
      tlevel = -1;
      w0 = 0;
      w1 = 0;
      tbit = -1;
      contract = false;
      scratch = 0;
      scratch2 = 0;
      scratch_list = [];
    }
  in
  {
    graph = g;
    nodes = Array.init (Graph.n g) make_node;
    stats =
      Congest.Stats.create ~bandwidth:(Congest.Bits.default_bandwidth (Graph.n g));
    pool = Eng.pool g;
    rejections = [];
    nominal_rounds = 0;
    telemetry = None;
    trace = None;
    domains = 1;
    fast_forward = true;
    faults = None;
    on_round = None;
    converge_left = Array.make (Graph.n g) (-1);
  }

let restore g ~nodes ~stats ~rejections ~nominal_rounds =
  if Array.length nodes <> Graph.n g then
    invalid_arg "State.restore: node count does not match the graph";
  {
    graph = g;
    nodes;
    stats;
    pool = Eng.pool g;
    rejections;
    nominal_rounds;
    telemetry = None;
    trace = None;
    domains = 1;
    fast_forward = true;
    faults = None;
    on_round = None;
    converge_left = Array.make (Graph.n g) (-1);
  }

let phase st label =
  (* A trace rotates the phase of the telemetry it projects. *)
  (match (st.trace, st.telemetry) with
  | Some tr, _ -> Congest.Trace.phase tr label
  | None, Some tel -> Congest.Telemetry.phase tel label
  | None, None -> ());
  Obs.Log.set_context ~phase:label ()

let node st v = st.nodes.(v)
let is_root st v = st.nodes.(v).part_root = v

let depth_array st =
  let n = Array.length st.nodes in
  let depth = Array.make n (-1) in
  let rec compute v =
    if depth.(v) >= 0 then depth.(v)
    else begin
      let d =
        if st.nodes.(v).parent < 0 then 0 else 1 + compute st.nodes.(v).parent
      in
      depth.(v) <- d;
      d
    end
  in
  for v = 0 to n - 1 do
    ignore (compute v)
  done;
  depth

let max_depth st = Array.fold_left max 0 (depth_array st)

let parts st =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun nd ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl nd.part_root) in
      Hashtbl.replace tbl nd.part_root (nd.id :: cur))
    st.nodes;
  Hashtbl.fold (fun root members acc -> (root, List.rev members) :: acc) tbl []
  |> List.sort compare

let cut_edges st =
  Graph.fold_edges
    (fun acc _ u v ->
      if st.nodes.(u).part_root <> st.nodes.(v).part_root then acc + 1 else acc)
    0 st.graph

let check_invariants st =
  let g = st.graph in
  let fail fmt = Printf.ksprintf failwith fmt in
  Array.iter
    (fun nd ->
      let v = nd.id in
      if nd.parent < 0 then begin
        if nd.part_root <> v then
          fail "node %d has no parent but root is %d" v nd.part_root
      end
      else begin
        if not (Graph.has_edge g v nd.parent) then
          fail "node %d: parent %d is not a graph neighbor" v nd.parent;
        if st.nodes.(nd.parent).part_root <> nd.part_root then
          fail "node %d and its parent %d are in different parts" v nd.parent;
        if not (List.mem v st.nodes.(nd.parent).children) then
          fail "node %d missing from children of its parent %d" v nd.parent
      end;
      List.iter
        (fun c ->
          if st.nodes.(c).parent <> v then
            fail "node %d lists child %d whose parent is %d" v c
              st.nodes.(c).parent)
        nd.children)
    st.nodes;
  (* Acyclicity and root-reachability via depth computation with cycle
     detection. *)
  let n = Array.length st.nodes in
  let mark = Array.make n 0 in
  let rec walk v trail =
    if mark.(v) = 1 then fail "parent cycle through node %d" v;
    if mark.(v) = 0 then begin
      mark.(v) <- 1;
      (if st.nodes.(v).parent >= 0 then walk st.nodes.(v).parent (v :: trail)
       else if st.nodes.(v).part_root <> v then
         fail "tree above %d ends at %d, not the part root" (List.hd trail) v);
      mark.(v) <- 2
    end
  in
  for v = 0 to n - 1 do
    walk v []
  done
