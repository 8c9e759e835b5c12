type agg = Many | Counts of (int * int) list

let super_rounds_for n =
  2 + int_of_float (ceil (log (float_of_int (max n 2)) /. log 1.5))

(* The notice counts of every node for one super-round, in place.  Node
   [v] owns [fill.(v)] and the slots [v * cap .. v * cap + cap - 1] of
   [keys] / [cnts]: its distinct neighbouring-part roots in first-arrival
   order with their counts, [fill.(v)] of them, or [fill.(v) = -1] once
   more than [cap = 3 * alpha] distinct roots arrived ([Many]).  Only
   [v]'s own hooks (its notice deliveries, its convergecast start-up and
   resumes) touch those words, so rounds sharded over domains never
   write one slot from two domains. *)
module Table = struct
  type t = { cap : int; fill : int array; keys : int array; cnts : int array }

  let create ~nodes ~alpha =
    let cap = 3 * alpha in
    {
      cap;
      fill = Array.make nodes 0;
      keys = Array.make (nodes * cap) 0;
      cnts = Array.make (nodes * cap) 0;
    }

  let clear t = Array.fill t.fill 0 (Array.length t.fill) 0

  let rec slot keys r i stop =
    if i = stop || keys.(i) = r then i else slot keys r (i + 1) stop

  let add t v r x =
    let k = t.fill.(v) in
    if k >= 0 then begin
      let base = v * t.cap in
      let i = slot t.keys r base (base + k) in
      if i < base + k then t.cnts.(i) <- t.cnts.(i) + x
      else if k = t.cap then t.fill.(v) <- -1
      else begin
        t.keys.(i) <- r;
        t.cnts.(i) <- x;
        t.fill.(v) <- k + 1
      end
    end

  let rec add_pairs t v = function
    | [] -> ()
    | r :: x :: rest ->
        add t v r x;
        add_pairs t v rest
    | [ _ ] -> failwith "Forest_decomp.decode: odd payload"

  let absorb t v = function [ -1 ] -> t.fill.(v) <- -1 | pl -> add_pairs t v pl

  (* Read out back to front, so each list is built without a reversal. *)
  let encode t v =
    let k = t.fill.(v) in
    if k < 0 then [ -1 ]
    else
      let base = v * t.cap in
      let rec go i acc =
        if i < base then acc else go (i - 1) (t.keys.(i) :: t.cnts.(i) :: acc)
      in
      go (base + k - 1) []

  let agg t v =
    let k = t.fill.(v) in
    if k < 0 then Many
    else
      let base = v * t.cap in
      let rec go i acc =
        if i < base then acc else go (i - 1) ((t.keys.(i), t.cnts.(i)) :: acc)
      in
      Counts (go (base + k - 1) [])
end

(* The convergecast value: a node's own table, or a child's [Up] payload
   on its way into the parent's.  [Prims.converge] only ever combines a
   node's own value with a decoded child payload, and only reads out (to
   encode, or at the root) a node's own value. *)
type acc = Own of int | Child of int list

(* The root reads its table out (as [Table.agg]) only in the two
   branches that use it. *)
let root_logic ~can_deactivate (nd : State.node) table v l =
  if nd.State.active then begin
    if can_deactivate then
      match Table.agg table v with
      | Many -> ()
      | Counts lst ->
          nd.State.active <- false;
          nd.State.deact_round <- l;
          nd.State.snapshot <- lst
  end
  else if nd.State.deact_round = l - 1 then begin
    let still_active =
      match Table.agg table v with
      | Many ->
          (* Impossible: active neighbors of an inactive part only shrink,
             and were at most 3 alpha at deactivation. *)
          failwith "Forest_decomp: overflow at an inactive part"
      | Counts lst -> List.map fst lst
    in
    nd.State.out_edges <-
      List.filter
        (fun (r', _) -> List.mem r' still_active || nd.State.id < r')
        nd.State.snapshot
  end

let run st ~alpha ~super_rounds ~budget =
  Array.iter
    (fun nd ->
      nd.State.active <- true;
      nd.State.deact_round <- -1;
      nd.State.snapshot <- [];
      nd.State.out_edges <- [])
    st.State.nodes;
  let roots =
    Array.to_list st.State.nodes
    |> List.filter (fun nd -> State.is_root st nd.State.id)
  in
  let all_oriented l =
    List.for_all
      (fun nd -> (not nd.State.active) && nd.State.deact_round < l)
      roots
  in
  let table = Table.create ~nodes:(Array.length st.State.nodes) ~alpha in
  (* Every node's [Own] value, built once per decomposition rather than
     once per node per convergecast. *)
  let own = Array.init (Array.length st.State.nodes) (fun v -> Own v) in
  let l = ref 1 in
  let stop = ref false in
  while (not !stop) && !l <= super_rounds + 1 do
    (* Notices from boundary nodes of active parts. *)
    Table.clear table;
    Prims.boundary st ~tag:((!l * 10) + 1)
      ~payload:(fun nd ->
        if nd.State.active then Some [ nd.State.part_root ] else None)
      ~on_receive:(fun nd ~nbr:_ pl ->
        match pl with
        | [ r ] -> Table.add table nd.State.id r 1
        | _ -> assert false);
    (* Aggregate per-part notice counts to the root. *)
    let sr = !l in
    Prims.converge st ~budget ~tag:((sr * 10) + 2)
      ~init:(fun nd -> own.(nd.State.id))
      ~combine:(fun a b ->
        match (a, b) with
        | Own v, Child pl ->
            Table.absorb table v pl;
            a
        | _ -> invalid_arg "Forest_decomp: combine")
      ~encode:(function
        | Own v -> Table.encode table v
        | Child _ -> invalid_arg "Forest_decomp: encode")
      ~decode:(fun pl -> Child pl)
      ~at_root:(fun nd a ->
        match a with
        | Own v ->
            root_logic ~can_deactivate:(sr <= super_rounds) nd table v sr
        | Child _ -> invalid_arg "Forest_decomp: at_root");
    (* Roots announce whether the part remains active. *)
    Prims.bcast st ~budget ~tag:((sr * 10) + 3)
      ~at_root:(fun nd ->
        if nd.State.active then Some [ 1 ]
        else if nd.State.deact_round = sr then Some [ 0 ]
        else None)
      ~on_receive:(fun nd pl -> nd.State.active <- pl = [ 1 ]);
    if all_oriented !l then stop := true;
    incr l
  done;
  let executed = !l - 1 in
  List.iter
    (fun nd ->
      if nd.State.active then
        st.State.rejections <-
          ( nd.State.id,
            Printf.sprintf
              "forest decomposition: part %d still active after %d \
               super-rounds (arboricity > %d evidence)"
              nd.State.id super_rounds alpha )
          :: st.State.rejections)
    roots;
  executed
