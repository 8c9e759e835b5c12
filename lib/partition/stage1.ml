open Graphlib

type phase_trace = {
  phase : int;
  cut_before : int;
  cut_after : int;
  max_diameter : int;
  max_tree_depth : int;
  parts : int;
  fd_super_rounds : int;
}

type result = {
  state : State.t;
  rejected : (int * string) list;
  phases : phase_trace list;
  rounds : int;
  nominal_rounds : int;
  degraded : string option;
}

(* Stable metrics: phase counts and durations are measured in simulated
   rounds, never wall clock. *)
let m_phases =
  Obs.Metrics.counter ~help:"Stage I phases executed" "stage1_phases"

let m_phase_rounds =
  Obs.Metrics.histogram
    ~help:"Simulated rounds per Stage I phase"
    ~buckets:(Obs.Metrics.exponential_buckets ~start:1 ~factor:2 ~count:20)
    "stage1_phase_rounds"

let phases_for ~eps ~alpha =
  let rate = 1.0 -. (1.0 /. float_of_int (12 * alpha)) in
  let t = log (eps /. 2.0) /. log rate in
  max 1 (int_of_float (ceil t))

(* Exact maximum induced-subgraph diameter over the current parts: BFS
   from every node, restricted to its part by comparing part roots.  The
   stamp array makes the scratch state reusable across sources without
   clearing, so the whole sweep allocates three arrays total instead of an
   induced subgraph per part. *)
let max_part_diameter st =
  let g = st.State.graph in
  let n = Graph.n g in
  let dist = Array.make n 0 in
  let stamp = Array.make n (-1) in
  let queue = Array.make n 0 in
  let best = ref 0 in
  for src = 0 to n - 1 do
    let root = (State.node st src).State.part_root in
    stamp.(src) <- src;
    dist.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      if dist.(u) > !best then best := dist.(u);
      Array.iter
        (fun v ->
          if stamp.(v) <> src && (State.node st v).State.part_root = root
          then begin
            stamp.(v) <- src;
            dist.(v) <- dist.(u) + 1;
            queue.(!tail) <- v;
            incr tail
          end)
        (Graph.neighbors g u)
    done
  done;
  !best

(* The fixed schedule of the paper for phase [i] (1-based): Theta (log n)
   super-rounds plus the merging sub-steps, each budgeted by the 4^(i-1)
   diameter bound. *)
let nominal_phase_rounds ~n ~phase =
  let d_nom = int_of_float (4.0 ** float_of_int (phase - 1)) in
  let per_step = (2 * d_nom) + 1 in
  let fd = Forest_decomp.super_rounds_for n in
  let cv = Cv_coloring.steps_for n in
  let merge_steps = (3 * (Merge.max_tree_height + 1)) + 12 in
  (fd + cv + merge_steps) * per_step

let run ?(alpha = 3) ?(stop_when_met = true) ?(measure_diameters = true)
    ?state ?resume ?on_phase g ~eps =
  if not (eps > 0.0 && eps < 1.0) then invalid_arg "Stage1.run: eps in (0,1)";
  let st = match state with Some st -> st | None -> State.create g in
  let faults_active = Congest.Faults.active st.State.faults in
  let n = Graph.n g and m = Graph.m g in
  let target = eps *. float_of_int m /. 2.0 in
  let t = phases_for ~eps ~alpha in
  let sr = Forest_decomp.super_rounds_for n in
  let phases = ref [] in
  let phase = ref 1 in
  (match resume with
  | Some (next_phase, phases_rev) ->
      if next_phase < 1 then invalid_arg "Stage1.run: resume phase < 1";
      phase := next_phase;
      phases := phases_rev
  | None -> ());
  let stop = ref false in
  let degraded = ref None in
  (try
     while (not !stop) && !phase <= t do
       State.phase st (Printf.sprintf "stage1-phase-%d" !phase);
       let rounds_before = st.State.stats.Congest.Stats.rounds in
       let cut_before = State.cut_edges st in
       Prims.refresh_roots st;
       let budget = max 1 (State.max_depth st) in
       let fd_super_rounds =
         Forest_decomp.run st ~alpha ~super_rounds:sr ~budget
       in
       st.State.nominal_rounds <-
         st.State.nominal_rounds + nominal_phase_rounds ~n ~phase:!phase;
       if st.State.rejections <> [] then stop := true
       else begin
         Merge.run st ~budget;
         let cut_after = State.cut_edges st in
         phases :=
           {
             phase = !phase;
             cut_before;
             cut_after;
             max_diameter = (if measure_diameters then max_part_diameter st else -1);
             max_tree_depth = State.max_depth st;
             parts = List.length (State.parts st);
             fd_super_rounds;
           }
           :: !phases;
         if stop_when_met && float_of_int cut_after <= target then stop := true;
         incr phase;
         (* Phase boundary: every engine pool/arena is drained here (each
            primitive runs to quiescence), so the only live state is
            [st]'s plain data — the safe point for checkpoint hooks. *)
         match on_phase with
         | Some f when (not !stop) && !phase <= t -> f !phase !phases
         | _ -> ()
       end;
       (* Phase duration in *simulated* rounds — deterministic across
          [?domains] and fast-forward, so the histogram is a stable
          metric. *)
       if Obs.Metrics.enabled () then begin
         Obs.Metrics.inc m_phases;
         Obs.Metrics.observe m_phase_rounds
           (st.State.stats.Congest.Stats.rounds - rounds_before)
       end
     done
   with
  | Congest.Faults.Degraded msg -> degraded := Some msg
  | e when faults_active ->
      (* Under an active fault policy the emulation's lockstep assumptions
         no longer hold: a dropped or duplicated tree message surfaces as a
         protocol-level failure ([failwith]/[assert]) somewhere inside a
         primitive.  That is a degraded execution, never a verdict. *)
      degraded :=
        Some ("Stage I interrupted under faults: " ^ Printexc.to_string e));
  Obs.Log.set_context ~phase:"" ();
  {
    state = st;
    rejected = st.State.rejections;
    phases = List.rev !phases;
    rounds = st.State.stats.Congest.Stats.rounds;
    nominal_rounds = st.State.nominal_rounds;
    degraded = !degraded;
  }
