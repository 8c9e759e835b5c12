open Graphlib

type mode = Fiber | Compiled

let pick mode ~faults =
  match mode with Fiber -> false | Compiled -> not faults

let mode_to_string = function Fiber -> "fiber" | Compiled -> "compiled"

let mode_of_string = function
  | "fiber" -> Some Fiber
  | "compiled" -> Some Compiled
  | _ -> None

type step = Halt | Park of int

module type NET = sig
  type ctx
  type msg

  val send : ctx -> dest:int -> msg -> unit
  val send_port : ctx -> dest:int -> eid:int -> msg -> unit
  val broadcast : ctx -> msg -> unit
  val round : ctx -> int
end

(* Per-mode counters, incremented once per run by whichever engine
   executed it (the fiber engine references these with label "fiber").
   Stable: simulated round counts are ff- and domain-invariant. *)
let m_mode_runs =
  Obs.Metrics.counter ~label_names:[ "mode" ]
    ~help:"Engine runs by execution mode" "congest_mode_runs"

let m_mode_rounds =
  Obs.Metrics.counter ~label_names:[ "mode" ]
    ~help:"Simulated rounds by execution mode" "congest_mode_rounds"

(* The run-level families below are the same ones [Engine] registers —
   registration is idempotent, so both engines share one set of series
   and a compiled run is indistinguishable from a serial fiber run in
   every family except the mode-labelled pair above.  The strings must
   stay byte-identical to engine.ml's. *)
let m_runs =
  Obs.Metrics.counter ~help:"Engine runs completed" "congest_runs"

let m_incomplete_runs =
  Obs.Metrics.counter
    ~help:"Engine runs that stopped early (max_rounds, crash culls or \
           recorded node failures)"
    "congest_incomplete_runs"

let m_rounds =
  Obs.Metrics.counter ~help:"Simulated rounds executed" "congest_rounds"

let m_charged_rounds =
  Obs.Metrics.counter
    ~help:"Rounds charged to the CONGEST budget (incl. fragmentation frames)"
    "congest_charged_rounds"

let m_messages =
  Obs.Metrics.counter ~help:"Messages delivered" "congest_messages"

let m_bits = Obs.Metrics.counter ~help:"Total bits delivered" "congest_bits"

let m_oversized =
  Obs.Metrics.counter
    ~help:"Edge-rounds exceeding the bandwidth (fragmented into frames)"
    "congest_oversized_edges"

let m_ff_rounds =
  Obs.Metrics.counter ~stable:false
    ~help:"Quiescent rounds skipped by fast-forward (subset of congest_rounds)"
    "congest_fast_forwarded_rounds"

let m_faults =
  Obs.Metrics.counter ~label_names:[ "kind" ]
    ~help:"Fault-injection firings by kind" "congest_faults"

let m_crashed =
  Obs.Metrics.counter ~help:"Crash-stop events charged to nodes"
    "congest_crashed_nodes"

let m_run_wall =
  Obs.Metrics.counter ~stable:false ~label_names:[ "domains" ]
    ~help:"Host wall clock spent inside Engine.run, microseconds, by \
           requested domain count"
    "congest_run_wall_us"

module type MESSAGE = sig
  type t

  val bits : t -> int
end

module Make (Msg : MESSAGE) = struct
  type msg = Msg.t
  type nonrec step = step = Halt | Park of int

  (* The compiled analogue of [Engine.pool]: the same flat delivery
     state (per-directed-edge bit counters, the sender worklist with
     contiguous send spans, the LIFO inbox slab) minus everything fibers
     needed — no continuation array, no arenas, no per-step effect
     dispatch.  The slab layout is copied deliberately: identical push
     and drain order is what makes inboxes byte-identical to the fiber
     engine's. *)
  type pool = {
    pgraph : Graph.t;
    edge_bits : int array;  (* per directed edge, reset by the charge pass *)
    queued : Bytes.t;  (* '\001' iff already in [senders] *)
    senders : int array;  (* nodes with queued sends, ascending *)
    soff : int array;  (* soff.(i): sender i's first entry in s_* *)
    mutable senders_len : int;
    mutable s_dest : int array;
    mutable s_eids : int array;  (* directed edge ids *)
    mutable s_msgs : Msg.t array;
    mutable s_len : int;
    receivers : int array;  (* nodes with a non-empty inbox *)
    mutable receivers_len : int;
    live : int array;  (* parked nodes, ascending, compacted per round *)
    wake : int array;  (* absolute resume deadline per parked node *)
    (* Causal parent of the round's first delivery per node (sender and
       send round of the frame that flipped [ib_head] from empty), for
       the trace's Resume wake-cause slots — same contract as the fiber
       pool's twin fields.  Lazily allocated by the first traced run. *)
    mutable wake_sender : int array;
    mutable wake_sent : int array;
    ib_head : int array;
    mutable ib_sender : int array;
    mutable ib_next : int array;
    mutable ib_msgs : Msg.t array;
    mutable ib_len : int;
    mutable in_use : bool;
  }

  let pool g =
    let n = Graph.n g in
    {
      pgraph = g;
      edge_bits = Array.make (2 * Graph.m g) 0;
      queued = Bytes.make n '\000';
      senders = Array.make (max 1 n) 0;
      soff = Array.make (max 1 n) 0;
      senders_len = 0;
      s_dest = [||];
      s_eids = [||];
      s_msgs = [||];
      s_len = 0;
      receivers = Array.make (max 1 n) 0;
      receivers_len = 0;
      live = Array.make (max 1 n) 0;
      wake = Array.make (max 1 n) 0;
      wake_sender = [||];
      wake_sent = [||];
      ib_head = Array.make (max 1 n) (-1);
      ib_sender = [||];
      ib_next = [||];
      ib_msgs = [||];
      ib_len = 0;
      in_use = false;
    }

  (* Clear leftovers from a previous (possibly abandoned) run, touching
     only what that run actually dirtied. *)
  let reset_pool p =
    for i = 0 to p.senders_len - 1 do
      Bytes.unsafe_set p.queued p.senders.(i) '\000'
    done;
    for j = 0 to p.s_len - 1 do
      p.edge_bits.(p.s_eids.(j)) <- 0
    done;
    p.senders_len <- 0;
    p.s_len <- 0;
    for i = 0 to p.receivers_len - 1 do
      p.ib_head.(p.receivers.(i)) <- -1
    done;
    p.receivers_len <- 0;
    p.ib_len <- 0

  let push_send p dest de msg =
    let cap = Array.length p.s_dest in
    if p.s_len = cap then begin
      let ncap = max 4 (2 * cap) in
      let nd = Array.make ncap 0 and ne = Array.make ncap 0 in
      let nm = Array.make ncap msg in
      Array.blit p.s_dest 0 nd 0 p.s_len;
      Array.blit p.s_eids 0 ne 0 p.s_len;
      Array.blit p.s_msgs 0 nm 0 p.s_len;
      p.s_dest <- nd;
      p.s_eids <- ne;
      p.s_msgs <- nm
    end;
    p.s_dest.(p.s_len) <- dest;
    p.s_eids.(p.s_len) <- de;
    p.s_msgs.(p.s_len) <- msg;
    p.s_len <- p.s_len + 1

  let push_inbox p ~sender ~dest msg =
    let cap = Array.length p.ib_sender in
    if p.ib_len = cap then begin
      let ncap = max 4 (2 * cap) in
      let ns = Array.make ncap 0 and nn = Array.make ncap 0 in
      let nm = Array.make ncap msg in
      Array.blit p.ib_sender 0 ns 0 p.ib_len;
      Array.blit p.ib_next 0 nn 0 p.ib_len;
      Array.blit p.ib_msgs 0 nm 0 p.ib_len;
      p.ib_sender <- ns;
      p.ib_next <- nn;
      p.ib_msgs <- nm
    end;
    let s = p.ib_len in
    p.ib_sender.(s) <- sender;
    p.ib_next.(s) <- p.ib_head.(dest);
    p.ib_msgs.(s) <- msg;
    p.ib_head.(dest) <- s;
    p.ib_len <- s + 1

  type engine = {
    graph : Graph.t;
    p : pool;
    estats : Stats.t;
    telemetry : Telemetry.t option;
    ff : bool;
    mutable reject_log : (int * int * string) list;  (* reverse chron. *)
    mutable current_round : int;
  }

  type ctx = { mutable cur : int; eng : engine }

  let round c = c.eng.current_round

  let reject c reason =
    c.eng.reject_log <- (c.eng.current_round, c.cur, reason) :: c.eng.reject_log

  (* Node [c.cur] runs once per round, so its sends stay contiguous from
     the offset recorded on first use — same invariant as the fiber
     engine's arenas. *)
  let send_de c dest de msg =
    let p = c.eng.p in
    if Bytes.unsafe_get p.queued c.cur = '\000' then begin
      Bytes.unsafe_set p.queued c.cur '\001';
      p.senders.(p.senders_len) <- c.cur;
      p.soff.(p.senders_len) <- p.s_len;
      p.senders_len <- p.senders_len + 1
    end;
    push_send p dest de msg

  let send c ~dest msg =
    let e =
      try Graph.find_edge c.eng.graph c.cur dest
      with Not_found ->
        invalid_arg
          (Printf.sprintf "Compiled.send: %d is not a neighbor of %d" dest
             c.cur)
    in
    send_de c dest ((2 * e) + if c.cur < dest then 0 else 1) msg

  let send_port c ~dest ~eid msg =
    send_de c dest ((2 * eid) + if c.cur < dest then 0 else 1) msg

  let broadcast c msg =
    let id = c.cur in
    Graph.iter_incident c.eng.graph id (fun dest e ->
        send_de c dest ((2 * e) + if id < dest then 0 else 1) msg)

  type result = {
    rejections : (int * int * string) list;
    stats : Stats.t;
    completed : bool;
  }

  let run ?bandwidth ?(max_rounds = 1_000_000) ?telemetry ?trace
      ?(fast_forward = true) ?on_round ?pool:opool g ~start ~resume =
    let n = Graph.n g in
    let m_t0 = if Obs.Metrics.enabled () then Unix.gettimeofday () else 0.0 in
    let bw =
      match bandwidth with Some b -> b | None -> Bits.default_bandwidth n
    in
    (match trace with
    | Some tr -> Trace.set_meta tr ~n ~m:(Graph.m g) ~bandwidth:bw
    | None -> ());
    let p, owned =
      match opool with
      | Some p when p.pgraph == g && not p.in_use ->
          reset_pool p;
          (p, true)
      | _ -> (pool g, false)
    in
    p.in_use <- true;
    let traced = trace <> None in
    if traced && Array.length p.wake_sender < n then begin
      p.wake_sender <- Array.make (max 1 n) (-1);
      p.wake_sent <- Array.make (max 1 n) (-1)
    end;
    let eng =
      {
        graph = g;
        p;
        estats = Stats.create ~bandwidth:bw;
        telemetry;
        ff = fast_forward;
        reject_log = [];
        current_round = 0;
      }
    in
    let ctx = { cur = -1; eng } in
    let wake = p.wake in
    (* The live list: parked nodes in ascending id order, compacted in
       place each round — the array analogue of the fiber engine's
       run-queue, and the source of the identical resume order. *)
    let live = p.live in
    let live_len = ref 0 in
    let min_wake = ref max_int in
    let completed = ref true in
    let running = ref true in
    (* Chains are LIFO; prepending while walking head-to-tail rebuilds
       push order (ascending sender, reverse send order within a sender)
       — byte-identical to [Engine.build_inbox]. *)
    let build_inbox v =
      let head = p.ib_head.(v) in
      if head < 0 then []
      else begin
        let acc = ref [] in
        let s = ref head in
        while !s >= 0 do
          acc := (p.ib_sender.(!s), p.ib_msgs.(!s)) :: !acc;
          s := p.ib_next.(!s)
        done;
        p.ib_head.(v) <- -1;
        !acc
      end
    in
    (* Resume/park trace events, predicted before/after the step loop in
       ascending id order — the same two-pass shape as the fiber
       engine's prescan/postscan, so the fiber event stream is
       byte-identical across modes.  Candidates are the due nodes with
       fast-forward on and every live node with it off (the fiber
       baseline resumes every waiting fiber every round). *)
    let fiber_scratch = ref [||] in
    let trace_prescan tr =
      if Array.length !fiber_scratch = 0 then
        fiber_scratch := Array.make (max 1 n) 0;
      let sc = !fiber_scratch in
      let cnt = ref 0 in
      for i = 0 to !live_len - 1 do
        let v = live.(i) in
        if (not eng.ff) || p.ib_head.(v) >= 0 || wake.(v) <= eng.current_round
        then begin
          (* Prefer-arrival rule, as in the fiber engine: any delivery
             this round outranks an expired deadline. *)
          if p.ib_head.(v) >= 0 then
            Trace.fiber_resume tr ~round:eng.current_round ~node:v
              ~cause:Trace.Wake_deliver ~sender:p.wake_sender.(v)
              ~sent:p.wake_sent.(v)
          else
            Trace.fiber_resume tr ~round:eng.current_round ~node:v
              ~cause:Trace.Wake_deadline ~sender:(-1) ~sent:(-1);
          sc.(!cnt) <- v;
          incr cnt
        end
      done;
      !cnt
    in
    (* Entries the step loop nulled out (halted or failed) are skipped;
       with fast-forward off a surviving fiber's park deadline is the
       next round (the fiber baseline re-suspends with [Suspend 1]),
       except candidates past a failed hook, which were never stepped
       and keep last round's deadline. *)
    let trace_postscan tr cnt ~failed_ci =
      let sc = !fiber_scratch in
      for i = 0 to cnt - 1 do
        let v = sc.(i) in
        if v >= 0 then
          let wk =
            if eng.ff then wake.(v)
            else if i > failed_ci then eng.current_round
            else eng.current_round + 1
          in
          Trace.fiber_park tr ~round:eng.current_round ~node:v ~wake:wk
      done
    in
    let one_round () =
      eng.estats.Stats.rounds <- eng.estats.Stats.rounds + 1;
      eng.current_round <- eng.current_round + 1;
      let round_bits = ref 0 and round_msgs = ref 0 in
      (* Deliver: senders ascending, each sender's span in reverse send
         order — the fiber engine's exact serial delivery order. *)
      for i = 0 to p.senders_len - 1 do
        let v = p.senders.(i) in
        Bytes.unsafe_set p.queued v '\000';
        let lo = p.soff.(i) in
        let hi = if i + 1 < p.senders_len then p.soff.(i + 1) else p.s_len in
        for j = hi - 1 downto lo do
          let dest = p.s_dest.(j) and de = p.s_eids.(j) in
          let msg = p.s_msgs.(j) in
          let b = Msg.bits msg in
          eng.estats.messages <- eng.estats.messages + 1;
          eng.estats.total_bits <- eng.estats.total_bits + b;
          incr round_msgs;
          round_bits := !round_bits + b;
          p.edge_bits.(de) <- p.edge_bits.(de) + b;
          if p.ib_head.(dest) < 0 then begin
            p.receivers.(p.receivers_len) <- dest;
            p.receivers_len <- p.receivers_len + 1;
            if traced then begin
              p.wake_sender.(dest) <- v;
              p.wake_sent.(dest) <- eng.current_round - 1
            end
          end;
          push_inbox p ~sender:v ~dest msg;
          (match trace with
          | Some tr ->
              Trace.message tr ~round:eng.current_round
                ~sent:(eng.current_round - 1) ~sender:v ~dest ~edge:de ~bits:b
          | None -> ())
        done
      done;
      (* Charge bandwidth per directed edge by re-scanning the same
         entries; zeroing [edge_bits] doubles as the visited mark. *)
      let max_frames = ref 1 in
      for i = 0 to p.senders_len - 1 do
        let lo = p.soff.(i) in
        let hi = if i + 1 < p.senders_len then p.soff.(i + 1) else p.s_len in
        for j = hi - 1 downto lo do
          let de = p.s_eids.(j) in
          let b = p.edge_bits.(de) in
          if b <> 0 then begin
            p.edge_bits.(de) <- 0;
            if b > eng.estats.Stats.max_edge_bits then
              eng.estats.Stats.max_edge_bits <- b;
            if b > bw then begin
              eng.estats.Stats.oversized <- eng.estats.Stats.oversized + 1;
              let frames = Stats.frames ~bandwidth:bw b in
              if frames > !max_frames then max_frames := frames
            end
          end
        done
      done;
      p.senders_len <- 0;
      p.s_len <- 0;
      eng.estats.Stats.charged_rounds <-
        eng.estats.Stats.charged_rounds + !max_frames;
      (* Step: ascending id order over the live list.  With fast-forward
         on, only due nodes (inbox or deadline) count as stepped — the
         fiber engine resumes exactly those; with it off, the legacy
         baseline steps every waiting node each round (the node's own
         hook still only runs on arrival or deadline, exactly like
         [Engine.wait]'s internal loop). *)
      let fib_cnt =
        match trace with Some tr -> trace_prescan tr | None -> 0
      in
      let stepped = ref 0 in
      let kept = ref 0 in
      let failure = ref None in
      let sc = !fiber_scratch in
      let ci = ref 0 in
      let failed_ci = ref max_int in
      min_wake := max_int;
      let keep v =
        live.(!kept) <- v;
        incr kept;
        if wake.(v) < !min_wake then min_wake := wake.(v)
      in
      (try
         for i = 0 to !live_len - 1 do
           let v = live.(i) in
           let due = p.ib_head.(v) >= 0 || wake.(v) <= eng.current_round in
           if not eng.ff then incr stepped;
           if due then begin
             let inbox = build_inbox v in
             if eng.ff then incr stepped;
             ctx.cur <- v;
             if traced then begin
               (* Halted or failed unless the hook parks again; the
                  candidate order of this loop matches the prescan's
                  exactly (nothing stepped so far changed an unvisited
                  node's due-ness), so [ci] walks the same scratch. *)
               sc.(!ci) <- -1;
               incr ci
             end;
             match resume ctx v inbox with
             | Park k ->
                 wake.(v) <- eng.current_round + max 1 k;
                 if traced then sc.(!ci - 1) <- v;
                 keep v
             | Halt -> ()
           end
           else begin
             if traced && not eng.ff then incr ci;
             keep v
           end
         done
       with e ->
         failure := Some e;
         if traced then failed_ci := !ci - 1);
      live_len := !kept;
      (match eng.telemetry with
      | Some tel ->
          Telemetry.tick tel ~stepped:!stepped ~domains:1 ~bits:!round_bits
            ~frames:!max_frames ~messages:!round_msgs
      | None -> ());
      (match trace with
      | Some tr ->
          trace_postscan tr fib_cnt ~failed_ci:!failed_ci;
          Trace.round_tick tr ~round:eng.current_round ~bits:!round_bits
            ~frames:!max_frames ~messages:!round_msgs ~stepped:!stepped
      | None -> ());
      (* A hook exception aborts after the round's accounting — the same
         point the fiber engine's propagate mode re-raises (after the
         telemetry tick and trace emission, before the inbox recycle;
         the next run's [reset_pool] clears the leftovers). *)
      (match !failure with Some e -> raise e | None -> ());
      (* Recycle the inbox chains (messages delivered to already-halted
         nodes were never consumed by [build_inbox]). *)
      for i = 0 to p.receivers_len - 1 do
        p.ib_head.(p.receivers.(i)) <- -1
      done;
      p.receivers_len <- 0;
      p.ib_len <- 0
    in
    let maybe_fast_forward () =
      if eng.ff && p.senders_len = 0 && !min_wake < max_int then begin
        let delta = !min_wake - eng.current_round - 1 in
        let budget = max_rounds - eng.estats.Stats.rounds in
        let delta = if delta > budget then budget else delta in
        if delta > 0 then begin
          eng.estats.Stats.rounds <- eng.estats.Stats.rounds + delta;
          eng.estats.Stats.charged_rounds <-
            eng.estats.Stats.charged_rounds + delta;
          eng.estats.Stats.fast_forwarded_rounds <-
            eng.estats.Stats.fast_forwarded_rounds + delta;
          eng.current_round <- eng.current_round + delta;
          (match eng.telemetry with
          | Some tel -> Telemetry.fast_forward tel ~rounds:delta
          | None -> ());
          (match trace with
          | Some tr ->
              Trace.fast_forward tr ~round:(eng.current_round - delta)
                ~rounds:delta
          | None -> ());
          (* Host-side observer, same contract as the fiber engine's. *)
          match on_round with Some f -> f delta | None -> ()
        end
      end
    in
    (try
       (* Start phase: ascending id order, no telemetry tick — like the
          fiber engine's start-up. *)
       for v = 0 to n - 1 do
         ctx.cur <- v;
         match start ctx v with
         | Park k ->
             let w = max 1 k in
             wake.(v) <- w;
             live.(!live_len) <- v;
             incr live_len;
             if w < !min_wake then min_wake := w
         | Halt -> ()
       done;
       (match trace with
       | Some tr ->
           (* Initial parks; with fast-forward off the fiber baseline's
              first suspension is always [Suspend 1], deadline round 1. *)
           for i = 0 to !live_len - 1 do
             let v = live.(i) in
             Trace.fiber_park tr ~round:0 ~node:v
               ~wake:(if eng.ff then wake.(v) else 1)
           done
       | None -> ());
       while !running && !live_len > 0 do
         if eng.estats.Stats.rounds >= max_rounds then begin
           running := false;
           completed := false
         end
         else begin
           maybe_fast_forward ();
           if eng.estats.Stats.rounds >= max_rounds then begin
             running := false;
             completed := false
           end
           else begin
             one_round ();
             match on_round with Some f -> f 1 | None -> ()
           end
         end
       done;
       if owned then p.in_use <- false;
       match trace with
       | Some tr -> Trace.run_end tr ~rounds:eng.current_round
       | None -> ()
     with e ->
       if owned then p.in_use <- false;
       (match trace with
       | Some tr -> Trace.run_end tr ~rounds:eng.current_round
       | None -> ());
       raise e);
    if Obs.Metrics.enabled () then begin
      let s = eng.estats in
      Obs.Metrics.inc m_runs;
      if not !completed then Obs.Metrics.inc m_incomplete_runs;
      Obs.Metrics.inc ~by:s.Stats.rounds m_rounds;
      Obs.Metrics.inc ~by:s.Stats.charged_rounds m_charged_rounds;
      Obs.Metrics.inc ~by:s.Stats.messages m_messages;
      Obs.Metrics.inc ~by:s.Stats.total_bits m_bits;
      Obs.Metrics.inc ~by:s.Stats.oversized m_oversized;
      Obs.Metrics.inc ~by:s.Stats.fast_forwarded_rounds m_ff_rounds;
      Obs.Metrics.inc ~labels:[ "dropped" ] ~by:s.Stats.dropped m_faults;
      Obs.Metrics.inc ~labels:[ "duplicated" ] ~by:s.Stats.duplicated m_faults;
      Obs.Metrics.inc ~labels:[ "delayed" ] ~by:s.Stats.delayed m_faults;
      Obs.Metrics.inc ~by:s.Stats.crashed_nodes m_crashed;
      Obs.Metrics.inc ~labels:[ "compiled" ] m_mode_runs;
      Obs.Metrics.inc ~labels:[ "compiled" ] ~by:s.Stats.rounds m_mode_rounds;
      let dt_us =
        int_of_float ((Unix.gettimeofday () -. m_t0) *. 1e6) |> max 0
      in
      Obs.Metrics.inc ~labels:[ "1" ] ~by:dt_us m_run_wall
    end;
    {
      rejections = List.rev eng.reject_log;
      stats = eng.estats;
      completed = !completed;
    }
end
