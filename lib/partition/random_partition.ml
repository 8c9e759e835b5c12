open Graphlib

type result = {
  state : State.t;
  phases : int;
  rounds : int;
  nominal_rounds : int;
  cut : int;
}

let trials_for ~delta =
  1 + int_of_float (ceil (log (1.0 /. delta)))

(* One uniform draw of a cut edge incident to each part (Section 4.1):
   every boundary node proposes a uniform choice among its own cut edges,
   and proposals merge up the tree with probability proportional to the
   number of edges they represent.  The root learns (edge endpoint inside,
   endpoint outside, target part root, total cut degree). *)
let uniform_draw st ~budget ~trial ~seed =
  let tag = 9000 + trial in
  Array.iter (fun nd -> nd.State.scratch_list <- []) st.State.nodes;
  Prims.run_program st ~seed (fun ctx nd ->
      let rng = Random.State.make [| seed; nd.State.id; trial; 0xd4aa |] in
      (* Local uniform choice among this node's cut edges. *)
      let cut_edges = ref [] in
      Array.iteri
        (fun port (nbr, _) ->
          if nd.State.nbr_root.(port) <> nd.State.part_root then
            cut_edges := (nbr, nd.State.nbr_root.(port)) :: !cut_edges)
        (Graph.incident st.State.graph nd.State.id);
      let own =
        match !cut_edges with
        | [] -> None
        | l ->
            let k = List.length l in
            let nbr, troot = List.nth l (Random.State.int rng k) in
            Some (nd.State.id, nbr, troot, k)
      in
      let pending = ref (List.length nd.State.children) in
      let acc = ref own in
      let sent = ref false in
      let merge a b =
        match (a, b) with
        | None, x | x, None -> x
        | Some (_, _, _, ca), Some (_, _, _, cb) ->
            let total = ca + cb in
            let pick_a = Random.State.int rng total < ca in
            let u, v, t, _ = if pick_a then Option.get a else Option.get b in
            Some (u, v, t, total)
      in
      let payload = function
        | None -> []
        | Some (u, v, t, c) -> [ u; v; t; c ]
      in
      let maybe_send () =
        if !pending = 0 && not !sent then begin
          sent := true;
          if nd.State.parent >= 0 then
            Prims.send ctx ~dest:nd.State.parent (Msg.Up (tag, payload !acc))
          else
            (* Root: record the draw. *)
            nd.State.scratch_list <-
              (match !acc with
              | None -> []
              | Some (u, v, t, c) -> [ (u, v); (t, c) ])
        end
      in
      maybe_send ();
      Prims.wait_rounds ctx ~budget (fun inbox ->
          List.iter
            (fun (_, msg) ->
              match msg with
              | Msg.Up (t, pl) when t = tag ->
                  let v =
                    match pl with
                    | [] -> None
                    | [ u; v; tr; c ] -> Some (u, v, tr, c)
                    | _ -> assert false
                  in
                  acc := merge !acc v;
                  decr pending
              | _ -> assert false)
            inbox;
          maybe_send ());
      if not !sent then failwith "Random_partition: draw budget too small")

(* Weighted-edge selection: [s] uniform draws per part, then the heaviest
   drawn auxiliary edge (weight = cut multiplicity to that target part)
   becomes the part's selection. *)
let weighted_selection st ~budget ~trials ~seed =
  let draws = Hashtbl.create 64 in
  for trial = 1 to trials do
    uniform_draw st ~budget ~trial ~seed;
    Array.iter
      (fun nd ->
        if State.is_root st nd.State.id then
          match nd.State.scratch_list with
          | [ _; (troot, _) ] ->
              let cur =
                Option.value ~default:[] (Hashtbl.find_opt draws nd.State.id)
              in
              if not (List.mem troot cur) then
                Hashtbl.replace draws nd.State.id (troot :: cur)
          | [] -> ()
          | _ -> assert false)
      st.State.nodes
  done;
  (* Weigh the drawn candidates: broadcast the candidate list, count
     matching cut edges per candidate, sum up the tree. *)
  Array.iter (fun nd -> nd.State.scratch_list <- [] ) st.State.nodes;
  Prims.bcast st ~budget ~tag:9500
    ~at_root:(fun nd ->
      match Hashtbl.find_opt draws nd.State.id with
      | Some (_ :: _ as cands) -> Some cands
      | _ -> None)
    ~on_receive:(fun nd cands ->
      nd.State.scratch_list <- List.map (fun t -> (t, 0)) cands);
  let count_for nd troot =
    let c = ref 0 in
    Array.iteri
      (fun port _ -> if nd.State.nbr_root.(port) = troot then incr c)
      nd.State.nbr_root;
    !c
  in
  Prims.converge st ~budget ~tag:9501
    ~init:(fun nd ->
      List.map (fun (t, _) -> (t, count_for nd t)) nd.State.scratch_list)
    ~combine:(fun a b ->
      if a = [] then b
      else if b = [] then a
      else
        List.map (fun (t, ca) -> (t, ca + List.assoc t b)) a)
    ~encode:(fun l -> List.concat_map (fun (t, c) -> [ t; c ]) l)
    ~decode:(fun l ->
      let rec go = function
        | [] -> []
        | t :: c :: rest -> (t, c) :: go rest
        | [ _ ] -> assert false
      in
      go l)
    ~at_root:(fun nd weighted ->
      let best =
        List.fold_left
          (fun acc (t, w) ->
            match acc with
            | None -> Some (t, w)
            | Some (t', w') ->
                if w > w' || (w = w' && t < t') then Some (t, w) else acc)
          None weighted
      in
      match best with
      | Some (t, w) ->
          nd.State.fsel_target <- t;
          nd.State.fsel_weight <- w
      | None -> ())

let run ?(alpha = 3) ?(stop_when_met = true) ?state g ~eps ~delta ~seed =
  if not (eps > 0.0 && eps < 1.0) then
    invalid_arg "Random_partition.run: eps in (0,1)";
  let st = match state with Some st -> st | None -> State.create g in
  let n = Graph.n g and m = Graph.m g in
  let target = eps *. float_of_int n in
  let trials = trials_for ~delta in
  let rate = 1.0 -. (1.0 /. float_of_int (64 * alpha)) in
  let t_max =
    if float_of_int m <= target then 0
    else
      max 1
        (int_of_float
           (ceil (log (target /. float_of_int m) /. log rate)))
  in
  let phase = ref 1 in
  let stop = ref (t_max = 0) in
  while (not !stop) && !phase <= t_max do
    Prims.refresh_roots st;
    let budget = max 1 (State.max_depth st) in
    Merge.reset_phase_fields st;
    weighted_selection st ~budget ~trials ~seed:(seed + (1000 * !phase));
    Merge.run_after_selection st ~budget;
    st.State.nominal_rounds <-
      st.State.nominal_rounds
      + ((trials + Cv_coloring.steps_for n + (3 * (Merge.max_tree_height + 1)) + 12)
         * ((2 * budget) + 1));
    if stop_when_met && float_of_int (State.cut_edges st) <= target then
      stop := true;
    incr phase
  done;
  {
    state = st;
    phases = !phase - 1;
    rounds = st.State.stats.Congest.Stats.rounds;
    nominal_rounds = st.State.nominal_rounds;
    cut = State.cut_edges st;
  }
