open Graphlib
module S = Partition.State
module M = Partition.Msg

type result = {
  spanner : Graph.t;
  edges : int;
  rounds : int;
  failed : bool;
}

(* The wave on the wire: cluster source and shifted value. *)
type M.held += Wave of int * float

let tag = 97

(* One id plus a fixed-point payload: 64 bits with the header. *)
let wave_cost =
  64 - M.bits (M.Held (tag, { M.value = Wave (0, 0.0); cost = 0 }))

(* Miller–Peng–Xu-style exponential-shift clustering, as used by
   Elkin–Neiman: every vertex starts a wave with value [r_v] (exponential
   with rate [ln (n/delta) / k]); waves decay by 1 per hop and only the
   best wave at each vertex keeps propagating.  Each vertex keeps the tree
   edge to the neighbor that delivered its best wave, plus one edge toward
   every other cluster heard within 1 of its own value. *)
let build ?(seed = 0) ?state g ~k ~delta =
  let n = Graph.n g in
  if n = 0 then
    { spanner = Graph.make ~n:0 []; edges = 0; rounds = 0; failed = false }
  else begin
    let st = match state with Some st -> st | None -> S.create g in
    let rounds_before = st.S.stats.Congest.Stats.rounds in
    let beta = log (float_of_int n /. delta) /. float_of_int k in
    (* Per node: its draw, its best wave (source, value), the neighbor
       that delivered it, the value it last relayed, and per foreign
       cluster the best delivery (value, neighbor). *)
    let r = Array.make n 0.0 in
    let src = Array.make n (-1) and best = Array.make n neg_infinity in
    let tree_nbr = Array.make n (-1) in
    let last_sent = Array.make n neg_infinity in
    let foreign = Array.init n (fun _ -> Hashtbl.create 8) in
    let maybe_broadcast send (nd : S.node) =
      let v = nd.S.id in
      if best.(v) > last_sent.(v) then begin
        last_sent.(v) <- best.(v);
        let wave = Wave (src.(v), best.(v) -. 1.0) in
        let msg = M.Held (tag, { M.value = wave; cost = wave_cost }) in
        Graph.iter_incident g v (fun nbr _ -> send ~dest:nbr msg)
      end
    in
    Partition.Prims.wave st ~budget:k ~settle:maybe_broadcast
      ~start:(fun send nd ->
        let v = nd.S.id in
        let rng = Random.State.make [| seed; v; 0x5eed |] in
        r.(v) <- -.log (1.0 -. Random.State.float rng 1.0) /. beta;
        src.(v) <- v;
        best.(v) <- r.(v);
        maybe_broadcast send nd)
      ~receive:(fun _ nd ~from msg ->
        let v = nd.S.id in
        match msg with
        | M.Held (t, { M.value = Wave (s, x); _ }) when t = tag ->
            if x > best.(v) then begin
              src.(v) <- s;
              best.(v) <- x;
              tree_nbr.(v) <- from
            end;
            let cur =
              Option.value ~default:neg_infinity
                (Option.map fst (Hashtbl.find_opt foreign.(v) s))
            in
            if x > cur then Hashtbl.replace foreign.(v) s (x, from)
        | _ -> assert false);
    (* The coordinator assembles the edge set: each node's tree edge into
       its cluster, and one edge per foreign cluster heard within 1 of
       its value. *)
    let keep = Hashtbl.create (4 * n) in
    let keep_edge u v = Hashtbl.replace keep (min u v, max u v) () in
    for v = 0 to n - 1 do
      if tree_nbr.(v) >= 0 then keep_edge v tree_nbr.(v);
      Hashtbl.iter
        (fun s (x, from) ->
          if s <> src.(v) && x >= best.(v) -. 1.0 then keep_edge v from)
        foreign.(v)
    done;
    let edges = Hashtbl.fold (fun e () acc -> e :: acc) keep [] in
    let spanner = Graph.make ~n edges in
    {
      spanner;
      edges = Graph.m spanner;
      rounds = st.S.stats.Congest.Stats.rounds - rounds_before;
      failed = Array.exists (fun r_v -> r_v >= float_of_int k) r;
    }
  end
