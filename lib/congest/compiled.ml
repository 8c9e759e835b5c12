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

  type inbox

  val inbox_is_empty : inbox -> bool
  val inbox_sender : ctx -> inbox -> int
  val inbox_msg : ctx -> inbox -> msg
  val inbox_next : ctx -> inbox -> inbox
end

module type MESSAGE = sig
  type t

  val bits : t -> int
end

module Make (Msg : MESSAGE) = struct
  type msg = Msg.t
  type nonrec step = step = Halt | Park of int

  (* The compiled analogue of [Engine.pool]: the same flat delivery
     state (per-directed-edge bit counters, the sender worklist with
     contiguous send spans, the inbox slab linked in delivery (FIFO)
     order) minus the arenas and the fault index, plus the due-set
     scheduler.

     Scheduler.  A parked node sits in exactly one intrusive,
     doubly-linked list ([bnext]/[bprev]): the wheel slot
     [wake land (W - 1)] when its deadline is less than [W] rounds past
     the round it parked in, otherwise the overflow list.  Wheel
     deadlines always lie in one [W]-round window starting at or after
     the next round to run, so a slot holds a single deadline; [settle]
     migrates overflow nodes into the wheel once their deadline enters
     the window ([ov_min] is a lower bound on the overflow deadlines, so
     the check is O(1) until that happens).  A round's due set is its
     deadline slot plus every parked node that received a message; it
     is put in ascending id order by sorting it or, once it holds n/8
     nodes or more, by one scan over the ids (at most 8 ids per due
     node; a budget's last round wakes every node at once).  Nothing
     else is touched. *)
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
    wake : int array;  (* absolute resume deadline per parked node *)
    where : Bytes.t;  (* '\000' not parked, '\001' wheel, '\002' overflow *)
    bnext : int array;
    bprev : int array;
    slots : int array;  (* wheel list heads; length W, a power of two *)
    mutable ov_head : int;
    mutable ov_min : int;
    mutable in_wheel : int;
    due : int array;  (* the round's due nodes *)
    due_tmp : int array;  (* merge scratch; only sets under n/8 are sorted *)
    mutable dirty : bool;  (* set until a run ends with every node halted *)
    (* Causal parent of the round's first delivery per node (sender and
       send round of the frame that flipped [ib_head] from empty), for
       the trace's Resume wake-cause slots — same contract as the fiber
       pool's twin fields.  Lazily allocated by the first traced run. *)
    mutable wake_sender : int array;
    mutable wake_sent : int array;
    ib_head : int array;
    ib_tail : int array;
    mutable ib_sender : int array;
    mutable ib_next : int array;
    mutable ib_msgs : Msg.t array;
    mutable ib_len : int;
    mutable in_use : bool;
  }

  let pool g =
    let n = Graph.n g in
    let w = ref 1024 in
    while !w < n do
      w := 2 * !w
    done;
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
      wake = Array.make (max 1 n) 0;
      where = Bytes.make n '\000';
      bnext = Array.make (max 1 n) (-1);
      bprev = Array.make (max 1 n) (-1);
      slots = Array.make !w (-1);
      ov_head = -1;
      ov_min = max_int;
      in_wheel = 0;
      due = Array.make (max 1 n) 0;
      due_tmp = Array.make (max 1 (n / 8)) 0;
      dirty = false;
      wake_sender = [||];
      wake_sent = [||];
      ib_head = Array.make (max 1 n) (-1);
      ib_tail = Array.make (max 1 n) (-1);
      ib_sender = [||];
      ib_next = [||];
      ib_msgs = [||];
      ib_len = 0;
      in_use = false;
    }

  (* Clear leftovers from a previous (possibly abandoned) run, touching
     only what that run actually dirtied; the scheduler is clean after
     any run that ended with every node halted. *)
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
    p.ib_len <- 0;
    if p.dirty then begin
      Bytes.fill p.where 0 (Bytes.length p.where) '\000';
      Array.fill p.slots 0 (Array.length p.slots) (-1);
      p.ov_head <- -1;
      p.in_wheel <- 0;
      p.dirty <- false
    end;
    p.ov_min <- max_int

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

  (* Append to [dest]'s chain, so walking it from [ib_head] yields push
     order. *)
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
    p.ib_next.(s) <- -1;
    p.ib_msgs.(s) <- msg;
    if p.ib_head.(dest) < 0 then p.ib_head.(dest) <- s
    else p.ib_next.(p.ib_tail.(dest)) <- s;
    p.ib_tail.(dest) <- s;
    p.ib_len <- s + 1

  (* Park [v] until absolute round [w], from round [now < w]. *)
  let park p ~now v w =
    let mask = Array.length p.slots - 1 in
    p.wake.(v) <- w;
    let head =
      if w - now <= mask then begin
        Bytes.unsafe_set p.where v '\001';
        p.in_wheel <- p.in_wheel + 1;
        let h = p.slots.(w land mask) in
        p.slots.(w land mask) <- v;
        h
      end
      else begin
        Bytes.unsafe_set p.where v '\002';
        if w < p.ov_min then p.ov_min <- w;
        let h = p.ov_head in
        p.ov_head <- v;
        h
      end
    in
    p.bprev.(v) <- -1;
    p.bnext.(v) <- head;
    if head >= 0 then p.bprev.(head) <- v

  let unpark p v =
    let nx = p.bnext.(v) and pv = p.bprev.(v) in
    let in_wheel = Bytes.unsafe_get p.where v = '\001' in
    if in_wheel then p.in_wheel <- p.in_wheel - 1;
    if pv >= 0 then p.bnext.(pv) <- nx
    else if in_wheel then
      p.slots.(p.wake.(v) land (Array.length p.slots - 1)) <- nx
    else p.ov_head <- nx;
    if nx >= 0 then p.bprev.(nx) <- pv;
    Bytes.unsafe_set p.where v '\000'

  (* Move every overflow node with a deadline before [lo + W] into the
     wheel, anchoring its window at [lo] (no parked deadline is earlier
     than [lo]); afterwards [ov_min] bounds what is left. *)
  let settle p lo =
    let hi = lo + Array.length p.slots in
    if p.ov_min < hi then begin
      let v = ref p.ov_head and m = ref max_int in
      while !v >= 0 do
        let u = !v in
        v := p.bnext.(u);
        let w = p.wake.(u) in
        if w < hi then begin
          unpark p u;
          park p ~now:lo u w
        end
        else if w < !m then m := w
      done;
      p.ov_min <- !m
    end

  (* The earliest parked deadline, at or after [lo]: exact, because
     [settle] leaves no overflow deadline inside the wheel's window. *)
  let rec next_deadline p lo =
    settle p lo;
    if p.in_wheel > 0 then begin
      let mask = Array.length p.slots - 1 in
      let r = ref lo in
      while p.slots.(!r land mask) < 0 do
        incr r
      done;
      !r
    end
    else next_deadline p p.ov_min

  (* Ascending sort of [a.(lo) .. a.(hi - 1)]: insertion sort on short
     ranges, merge sort (through [tmp]) above; an already ordered split
     skips its merge, so sorted input costs one pass. *)
  let rec sort_range (a : int array) tmp lo hi =
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      sort_range a tmp lo mid;
      sort_range a tmp mid hi;
      if a.(mid - 1) > a.(mid) then begin
        Array.blit a lo tmp lo (mid - lo);
        let i = ref lo and j = ref mid and k = ref lo in
        while !i < mid do
          if !j < hi && a.(!j) < tmp.(!i) then begin
            a.(!k) <- a.(!j);
            incr j
          end
          else begin
            a.(!k) <- tmp.(!i);
            incr i
          end;
          incr k
        done
      end
    end

  type engine = {
    graph : Graph.t;
    p : pool;
    estats : Stats.t;
    ff : bool;
    mutable current_round : int;
  }

  type ctx = { mutable cur : int; eng : engine }

  let round c = c.eng.current_round

  (* The inbox handed to [resume] is the head of the node's slab chain
     ([-1] when empty); a cursor is a slab index, valid until the hook
     returns. *)
  type inbox = int

  let inbox_is_empty s = s < 0
  let inbox_sender c s = c.eng.p.ib_sender.(s)
  let inbox_msg c s = c.eng.p.ib_msgs.(s)
  let inbox_next c s = c.eng.p.ib_next.(s)

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

  type result = { stats : Stats.t; completed : bool }

  let run ?bandwidth ?(max_rounds = 1_000_000) ?telemetry ?trace
      ?(fast_forward = true) ?on_round ?pool:opool g ~start ~resume =
    let n = Graph.n g in
    let acct =
      Account.create ~bandwidth ~telemetry ~trace ~on_round ~max_rounds g
    in
    let bw = (Account.stats acct).Stats.bandwidth in
    let p, owned =
      match opool with
      | Some p when p.pgraph == g && not p.in_use ->
          reset_pool p;
          (p, true)
      | _ -> (pool g, false)
    in
    p.in_use <- true;
    p.dirty <- true;
    let traced = trace <> None in
    if traced && Array.length p.wake_sender < n then begin
      p.wake_sender <- Array.make (max 1 n) (-1);
      p.wake_sent <- Array.make (max 1 n) (-1)
    end;
    let eng =
      {
        graph = g;
        p;
        estats = Account.stats acct;
        ff = fast_forward;
        current_round = 0;
      }
    in
    let ctx = { cur = -1; eng } in
    let wake = p.wake and where = p.where and due = p.due in
    let live = ref 0 in  (* parked nodes *)
    (* Resume/park trace events, predicted before/after the step loop in
       ascending id order — the same two-pass shape as the engine's
       prescan/postscan, so the event stream is byte-identical across
       modes.  Candidates are the due nodes with fast-forward on and
       every parked node with it off (the engine's baseline steps every
       parked node every round). *)
    let trace_resume tr v =
      (* Prefer-arrival rule, as in the engine: any delivery this
         round outranks an expired deadline. *)
      if p.ib_head.(v) >= 0 then
        Trace.fiber_resume tr ~round:eng.current_round ~node:v
          ~cause:Trace.Wake_deliver ~sender:p.wake_sender.(v)
          ~sent:p.wake_sent.(v)
      else
        Trace.fiber_resume tr ~round:eng.current_round ~node:v
          ~cause:Trace.Wake_deadline ~sender:(-1) ~sent:(-1)
    in
    let trace_prescan tr nd =
      if eng.ff then
        for i = 0 to nd - 1 do
          trace_resume tr due.(i)
        done
      else
        for v = 0 to n - 1 do
          if Bytes.unsafe_get where v <> '\000' then trace_resume tr v
        done
    in
    (* Halted and failed candidates are no longer parked and are
       skipped; with fast-forward off a surviving node's wake is the next
       round (the baseline's one-round park), except candidates past a
       failed hook, which were never stepped and keep this round. *)
    let trace_postscan tr nd ~failed =
      let r = eng.current_round in
      if eng.ff then
        for i = 0 to nd - 1 do
          let v = due.(i) in
          if Bytes.unsafe_get where v <> '\000' then
            Trace.fiber_park tr ~round:r ~node:v ~wake:wake.(v)
        done
      else
        for v = 0 to n - 1 do
          if Bytes.unsafe_get where v <> '\000' then
            Trace.fiber_park tr ~round:r ~node:v
              ~wake:(if v > failed then r else r + 1)
        done
    in
    let one_round () =
      (* The clock follows [Stats.rounds], which also moves by skips. *)
      eng.current_round <- Account.open_round acct;
      let r = eng.current_round in
      let round_bits = ref 0 and round_msgs = ref 0 in
      let nd = ref 0 in
      (* Deliver: senders ascending, each sender's span in reverse send
         order — the fiber engine's exact serial delivery order.  A
         parked node's first delivery makes it due.  [Msg.bits] is
         memoized for a message physically equal to the previous one (a
         broadcast, a relayed payload); no hook runs inside this pass,
         so the memo cannot go stale. *)
      let prev = ref (-1) and prev_bits = ref 0 in
      for i = 0 to p.senders_len - 1 do
        let v = p.senders.(i) in
        Bytes.unsafe_set p.queued v '\000';
        let lo = p.soff.(i) in
        let hi = if i + 1 < p.senders_len then p.soff.(i + 1) else p.s_len in
        for j = hi - 1 downto lo do
          let dest = p.s_dest.(j) and de = p.s_eids.(j) in
          let msg = p.s_msgs.(j) in
          let b =
            if !prev >= 0 && p.s_msgs.(!prev) == msg then !prev_bits
            else begin
              let b = Msg.bits msg in
              prev_bits := b;
              b
            end
          in
          prev := j;
          incr round_msgs;
          round_bits := !round_bits + b;
          p.edge_bits.(de) <- p.edge_bits.(de) + b;
          if p.ib_head.(dest) < 0 then begin
            p.receivers.(p.receivers_len) <- dest;
            p.receivers_len <- p.receivers_len + 1;
            if Bytes.unsafe_get where dest <> '\000' then begin
              due.(!nd) <- dest;
              incr nd
            end;
            if traced then begin
              p.wake_sender.(dest) <- v;
              p.wake_sent.(dest) <- r - 1
            end
          end;
          push_inbox p ~sender:v ~dest msg;
          (match trace with
          | Some tr ->
              Trace.message tr ~round:r ~sent:(r - 1) ~sender:v ~dest ~edge:de
                ~bits:b
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
      (* The round's deadline slot; receivers are already listed.  A
         dense due set is re-listed in order by one scan over the ids. *)
      settle p r;
      let v = ref p.slots.(r land (Array.length p.slots - 1)) in
      while !v >= 0 do
        if p.ib_head.(!v) < 0 then begin
          due.(!nd) <- !v;
          incr nd
        end;
        v := p.bnext.(!v)
      done;
      let nd = !nd in
      if 8 * nd >= n then begin
        let k = ref 0 in
        for u = 0 to n - 1 do
          if
            Bytes.unsafe_get where u <> '\000'
            && (p.ib_head.(u) >= 0 || wake.(u) = r)
          then begin
            due.(!k) <- u;
            incr k
          end
        done
      end
      else sort_range due p.due_tmp 0 nd;
      (match trace with Some tr -> trace_prescan tr nd | None -> ());
      (* Step the due nodes in ascending id order.  With fast-forward on
         they are what the engine steps; with it off, the legacy baseline
         also steps every other parked node (without running its hook,
         as in the engine's stepping loop), so all of them count. *)
      let live_before = !live in
      let ci = ref 0 in
      let failure = ref None in
      (try
         while !ci < nd do
           let v = due.(!ci) in
           unpark p v;
           ctx.cur <- v;
           (match resume ctx v p.ib_head.(v) with
           | Park k -> park p ~now:r v (r + max 1 k)
           | Halt -> decr live);
           incr ci
         done
       with e -> failure := Some e);
      let failed = if !failure = None then max_int else due.(!ci) in
      let stepped =
        if eng.ff then if !failure = None then nd else !ci + 1
        else if !failure = None then live_before
        else begin
          (* Every parked node up to the failed one was stepped: those
             below it are still parked or halted this round. *)
          let c = ref (live_before - !live + 1) in
          for u = 0 to failed - 1 do
            if Bytes.unsafe_get where u <> '\000' then incr c
          done;
          !c
        end
      in
      (match trace with
      | Some tr -> trace_postscan tr nd ~failed
      | None -> ());
      Account.close_round acct ~stepped ~domains:1 ~dropped:0 ~duplicated:0
        ~delayed:0 ~crashed:0 ~bits:!round_bits ~frames:!max_frames
        ~messages:!round_msgs;
      (* A hook exception aborts after the round's accounting — the same
         point the fiber engine's propagate mode re-raises (after the
         telemetry tick and trace emission, before the inbox recycle;
         the next run's [reset_pool] clears the leftovers). *)
      (match !failure with Some e -> raise e | None -> ());
      (* Recycle the inbox chains, including those of halted nodes. *)
      for i = 0 to p.receivers_len - 1 do
        p.ib_head.(p.receivers.(i)) <- -1
      done;
      p.receivers_len <- 0;
      p.ib_len <- 0
    in
    let completed =
      Account.guard acct
        ~release:(fun () -> if owned then p.in_use <- false)
        (fun () ->
          (* Start phase: ascending id order, no telemetry tick — like the
             engine's start-up. *)
          for v = 0 to n - 1 do
            ctx.cur <- v;
            match start ctx v with
            | Park k ->
                park p ~now:0 v (max 1 k);
                incr live
            | Halt -> ()
          done;
          (match trace with
          | Some tr ->
              (* Initial parks; with fast-forward off the baseline's first
                 wake is always round 1. *)
              for v = 0 to n - 1 do
                if Bytes.unsafe_get where v <> '\000' then
                  Trace.fiber_park tr ~round:0 ~node:v
                    ~wake:(if eng.ff then wake.(v) else 1)
              done
          | None -> ());
          (* Skip target: the nearest non-empty deadline bucket. *)
          let completed =
            Account.drive acct
              ~live:(fun () -> !live > 0)
              ~wake:(fun () ->
                if eng.ff && p.senders_len = 0 then
                  next_deadline p (eng.current_round + 1)
                else max_int)
              ~step:one_round
          in
          if !live = 0 then p.dirty <- false;
          completed)
    in
    Account.finish acct ~mode:"compiled" ~wall:"1" ~completed;
    { stats = eng.estats; completed }
end
