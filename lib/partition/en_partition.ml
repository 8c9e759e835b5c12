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

let run ?(seed = 0) g ~eps =
  if not (eps > 0.0 && eps < 1.0) then invalid_arg "En_partition.run: eps";
  let n = Graph.n g in
  let st = State.create g in
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
    Prims.run_program st ~seed (fun ctx nd ->
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
        (* Lexicographic maximum on (value, -source): ties in the scaled
           arithmetic resolve toward the smaller source everywhere, which
           makes the quiescent parent pointers cluster-consistent. *)
        let better x src =
          x > best_val.(v) || (x = best_val.(v) && src < best_src.(v))
        in
        let last_sent = ref (neg_infinity, max_int) in
        let maybe_broadcast () =
          if
            best_val.(v) > fst !last_sent
            || (best_val.(v) = fst !last_sent && best_src.(v) < snd !last_sent)
          then begin
            last_sent := (best_val.(v), best_src.(v));
            let payload =
              [ best_src.(v); int_of_float ((best_val.(v) -. 1.0) *. float_of_int scale) ]
            in
            Array.iter
              (fun (nbr, _) -> Prims.send ctx ~dest:nbr (Msg.Bdry (95, payload)))
              (Graph.incident g v)
          end
        in
        maybe_broadcast ();
        Prims.wait_rounds ctx ~budget:(2 * radius_bound) (fun inbox ->
            List.iter
              (fun (from, msg) ->
                match msg with
                | Msg.Bdry (95, [ src; scaled ]) ->
                    let x = float_of_int scaled /. float_of_int scale in
                    if better x src then begin
                      best_val.(v) <- x;
                      best_src.(v) <- src;
                      best_from.(v) <- from
                    end
                | _ -> assert false)
              inbox;
            maybe_broadcast ()));
    (* Install the partition: part root = cluster source, tree = the
       first-contact (best-delivery) edges; children via one more round. *)
    Array.iter
      (fun nd ->
        let v = nd.State.id in
        nd.State.part_root <- best_src.(v);
        nd.State.parent <- best_from.(v);
        nd.State.children <- [])
      st.State.nodes;
    Prims.run_program st (fun ctx nd ->
        (if nd.State.parent >= 0 then
           Prims.send ctx ~dest:nd.State.parent (Msg.Bdry (96, [])));
        let inbox = Prims.sync ctx in
        List.iter
          (fun (from, msg) ->
            match msg with
            | Msg.Bdry (96, []) -> nd.State.children <- from :: nd.State.children
            | _ -> assert false)
          inbox);
    Prims.refresh_roots st;
    State.check_invariants st;
    {
      state = st;
      cut = State.cut_edges st;
      clusters = List.length (State.parts st);
      radius_bound;
    }
  end
