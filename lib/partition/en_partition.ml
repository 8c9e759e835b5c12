open Graphlib

type result = {
  state : State.t;
  cut : int;
  clusters : int;
  radius_bound : int;
}

(* Shifted values travel as fixed-point integers so the wire format stays
   integral: value = (r_v - dist) * scale. *)
let scale = 1 lsl 16

let run ?(seed = 0) ?state g ~eps =
  if not (eps > 0.0 && eps < 1.0) then invalid_arg "En_partition.run: eps";
  let n = Graph.n g in
  let st = match state with Some st -> st | None -> State.create g in
  if n = 0 then { state = st; cut = 0; clusters = 0; radius_bound = 0 }
  else begin
    let beta = eps /. 2.0 in
    (* All shifts are below R = (2/eps) ln n + O(1/eps) w.p. 1 - 1/n. *)
    let radius_bound =
      2 + int_of_float (ceil (log (float_of_int (max n 2)) /. beta))
    in
    (* best wave per node: (value, source, delivering neighbor) *)
    let best_val = Array.make n neg_infinity in
    let best_src = Array.make n (-1) in
    let best_from = Array.make n (-1) in
    (* Lexicographic maximum on (value, -source): ties in the scaled
       arithmetic resolve toward the smaller source everywhere, which
       makes the quiescent parent pointers cluster-consistent. *)
    let beats x src y src' = x > y || (x = y && src < src') in
    (* The last wave each node relayed: it relays again only when its
       best improved since. *)
    let sent_val = Array.make n neg_infinity in
    let sent_src = Array.make n max_int in
    let maybe_broadcast send (nd : State.node) =
      let v = nd.State.id in
      if beats best_val.(v) best_src.(v) sent_val.(v) sent_src.(v) then begin
        sent_val.(v) <- best_val.(v);
        sent_src.(v) <- best_src.(v);
        let payload =
          [ best_src.(v); int_of_float ((best_val.(v) -. 1.0) *. float_of_int scale) ]
        in
        Array.iter
          (fun (nbr, _) -> send ~dest:nbr (Msg.Bdry (95, payload)))
          (Graph.incident g v)
      end
    in
    Prims.wave st ~budget:(2 * radius_bound) ~settle:maybe_broadcast
      ~start:(fun send nd ->
        let v = nd.State.id in
        let rng = Random.State.make [| seed; v; 0xe14 |] in
        let r_v = -.log (1.0 -. Random.State.float rng 1.0) /. beta in
        let r_v =
          if r_v >= float_of_int radius_bound then
            float_of_int radius_bound -. 1.0
          else r_v
        in
        best_val.(v) <- r_v;
        best_src.(v) <- v;
        maybe_broadcast send nd)
      ~receive:(fun _ nd ~from msg ->
        let v = nd.State.id in
        match msg with
        | Msg.Bdry (95, [ src; scaled ]) ->
            let x = float_of_int scaled /. float_of_int scale in
            if beats x src best_val.(v) best_src.(v) then begin
              best_val.(v) <- x;
              best_src.(v) <- src;
              best_from.(v) <- from
            end
        | _ -> assert false);
    (* Install the partition: part root = cluster source, tree = the
       first-contact (best-delivery) edges; children via one more round. *)
    Array.iter
      (fun nd ->
        let v = nd.State.id in
        nd.State.part_root <- best_src.(v);
        nd.State.parent <- best_from.(v);
        nd.State.children <- [])
      st.State.nodes;
    Prims.wave st ~budget:1
      ~start:(fun send nd ->
        if nd.State.parent >= 0 then
          send ~dest:nd.State.parent (Msg.Bdry (96, [])))
      ~receive:(fun _ nd ~from msg ->
        match msg with
        | Msg.Bdry (96, []) -> nd.State.children <- from :: nd.State.children
        | _ -> assert false);
    Prims.refresh_roots st;
    State.check_invariants st;
    {
      state = st;
      cut = State.cut_edges st;
      clusters = List.length (State.parts st);
      radius_bound;
    }
  end
