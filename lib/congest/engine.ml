open Graphlib

module type MESSAGE = sig
  type t

  val bits : t -> int
end

(* Memory-substrate gauges, set at every pool creation (the M1 gate reads
   them after a run): analytic bytes of the vertex- and edge-indexed
   arrays at creation time — a pure function of (n, m), hence stable. *)
let m_graph_node_bytes =
  Obs.Metrics.gauge ~help:"Graph CSR bytes in vertex-indexed arrays"
    "congest_graph_node_bytes"

let m_graph_edge_bytes =
  Obs.Metrics.gauge ~help:"Graph CSR bytes in edge-indexed arrays"
    "congest_graph_edge_bytes"

let m_pool_node_bytes =
  Obs.Metrics.gauge
    ~help:"Engine pool bytes in vertex-indexed arrays, at pool creation"
    "congest_pool_node_bytes"

let m_pool_edge_bytes =
  Obs.Metrics.gauge
    ~help:"Engine pool bytes in edge-indexed arrays, at pool creation"
    "congest_pool_edge_bytes"

module Make (Msg : MESSAGE) = struct
  type msg = Msg.t

  (* Per-domain stepping state.  During a round, each domain steps a
     disjoint block of the due set; everything a kernel hook can mutate
     that is not indexed by its own id (the senders worklist, queued
     sends, a raised exception) lands in the stepping domain's arena and
     is merged by the coordinating domain, in arena order, after the
     barrier.  Blocks cut the ascending due set into contiguous ranges,
     so concatenating arenas 0..D-1 reproduces exactly the order a
     serial engine would have produced.

     Sends live in one flat growable buffer per arena ([s_dest] / [s_eids]
     / [s_msgs]) instead of a per-node outbox: a node steps exactly once
     per round, so its sends are contiguous, starting at the offset
     [aoff.(i)] recorded when sender [i] first queued.  That turns 2n
     boxed buffer records into three arrays per arena and lets the charge
     pass recover "which directed edges carried traffic" by re-scanning
     the entries, with no 2m-sized side table. *)
  type arena = {
    asenders : int array;  (* nodes with queued sends, ascending *)
    mutable asenders_len : int;
    aoff : int array;  (* aoff.(i): sender i's first entry in s_* *)
    mutable s_dest : int array;
    mutable s_eids : int array;  (* directed edge ids *)
    mutable s_msgs : Msg.t array;
    mutable s_len : int;
    mutable afailed : (int * exn) option;  (* lowest failing node in block *)
    mutable astepped : int;  (* nodes stepped this phase *)
  }

  let fresh_arena n =
    {
      asenders = Array.make (max 1 n) 0;
      asenders_len = 0;
      aoff = Array.make (max 1 n) 0;
      s_dest = [||];
      s_eids = [||];
      s_msgs = [||];
      s_len = 0;
      afailed = None;
      astepped = 0;
    }

  (* [s_msgs] is created from the first message pushed, so no dummy
     [Msg.t] is ever needed. *)
  let push_send a dest de msg =
    let cap = Array.length a.s_dest in
    if a.s_len = cap then begin
      let ncap = max 4 (2 * cap) in
      let nd = Array.make ncap 0 and ne = Array.make ncap 0 in
      let nm = Array.make ncap msg in
      Array.blit a.s_dest 0 nd 0 a.s_len;
      Array.blit a.s_eids 0 ne 0 a.s_len;
      Array.blit a.s_msgs 0 nm 0 a.s_len;
      a.s_dest <- nd;
      a.s_eids <- ne;
      a.s_msgs <- nm
    end;
    a.s_dest.(a.s_len) <- dest;
    a.s_eids.(a.s_len) <- de;
    a.s_msgs.(a.s_len) <- msg;
    a.s_len <- a.s_len + 1

  (* Preallocated per-graph delivery and scheduling state, reusable across
     runs so that a protocol built from many short engine runs (Stage I's
     primitives) does not pay an O(n + m) allocation bill per run.  One
     run at a time; a nested [run_kernel] on a busy pool silently falls
     back to fresh allocation.

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
     node; a budget's last round wakes every node at once).  Nodes that
     are merely parked are never visited. *)
  type pool = {
    pgraph : Graph.t;
    (* Per-directed-edge bit totals for the round being delivered.  The
       directed edge u->v of undirected edge e=(a,b), a<b, has id [2e]
       when u=a and [2e+1] when u=b.  Entries are reset by the charge
       pass re-scanning the arenas' send entries (plus [extra_touched]
       for delayed re-deliveries), so a round costs O(edges carrying
       traffic), not O(m). *)
    edge_bits : int array;
    (* Directed edges charged by delayed (re)deliveries this round — the
       only traffic the send-entry re-scan cannot see.  Tiny: bounded by
       the delayed messages landing this round. *)
    mutable extra_touched : int array;
    mutable extra_len : int;
    (* Per-directed-edge message index for the round being delivered (the
       [k] of [Faults.draw]); reset by the same charge re-scan.  Lazily
       sized to 2m by the first faulted run so fault-free pools stay 16
       bytes/edge. *)
    mutable fidx : int array;
    queued : Bytes.t;  (* '\001' iff already in some arena's senders list *)
    receivers : int array;  (* nodes with a non-empty inbox *)
    mutable receivers_len : int;
    (* A live node's deadline: the absolute round at which it resumes
       even with an empty inbox, or -1 once it halted, failed or was
       culled by a crash-stop.  Start-up writes every node's entry, so
       no reset is needed. *)
    wake : int array;
    where : Bytes.t;  (* '\000' not parked, '\001' wheel, '\002' overflow *)
    bnext : int array;
    bprev : int array;
    slots : int array;  (* wheel list heads; length W, a power of two *)
    mutable ov_head : int;
    mutable ov_min : int;
    mutable in_wheel : int;
    due : int array;  (* the round's due nodes, ascending *)
    due_tmp : int array;  (* merge scratch; only sets under n/8 are sorted *)
    mutable dirty : bool;  (* set until a run ends with every node halted *)
    (* Causal parent of the round's first inbox delivery per node —
       (sender, send round) of the frame that flipped [ib_head] from
       empty — feeding the trace's Resume wake-cause slots.  Valid only
       while [ib_head.(v) >= 0]; lazily allocated by the first traced
       run so untraced pools pay nothing. *)
    mutable wake_sender : int array;
    mutable wake_sent : int array;
    (* Inbox slab: deliveries for the round land in one growable set of
       parallel arrays, chained per destination through [ib_next] from
       [ib_head.(dest)] (-1 = empty) to [ib_tail.(dest)], in delivery
       (FIFO) order, so a resumed node reads its inbox in place through
       a cursor.  Only the stepping domain that owns [dest] reads its
       chain; the slab itself is written exclusively by the coordinator
       during delivery. *)
    ib_head : int array;
    ib_tail : int array;
    mutable ib_sender : int array;
    mutable ib_next : int array;
    mutable ib_msgs : Msg.t array;
    mutable ib_len : int;
    mutable arenas : arena array;  (* grown on demand to the run's D *)
    mutable in_use : bool;
  }

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

  let push_extra p de =
    let cap = Array.length p.extra_touched in
    if p.extra_len = cap then begin
      let na = Array.make (max 8 (2 * cap)) 0 in
      Array.blit p.extra_touched 0 na 0 p.extra_len;
      p.extra_touched <- na
    end;
    p.extra_touched.(p.extra_len) <- de;
    p.extra_len <- p.extra_len + 1

  (* One slot of the delayed-message ring: the ring has [max_delay + 1]
     slots indexed by due round mod its width, so every pending due round
     maps to its own slot (delays are 1..max_delay rounds).  Entries are
     appended in enqueue order, which is exactly the global sequence
     order the old sorted-list implementation reconstructed — and only
     the bucket due this round is ever drained, making heavy delay specs
     linear instead of quadratic. *)
  type dslot = {
    mutable q_sent : int array;  (* send round, for trace events *)
    mutable q_sender : int array;
    mutable q_dest : int array;
    mutable q_de : int array;
    mutable q_msgs : Msg.t array;
    mutable q_len : int;
    mutable q_due : int;  (* due round of the queued entries; -1 if empty *)
  }

  let fresh_dslot () =
    {
      q_sent = [||];
      q_sender = [||];
      q_dest = [||];
      q_de = [||];
      q_msgs = [||];
      q_len = 0;
      q_due = -1;
    }

  let push_dslot s ~sent ~sender ~dest ~de msg =
    let cap = Array.length s.q_sent in
    if s.q_len = cap then begin
      let ncap = max 4 (2 * cap) in
      let nt = Array.make ncap 0
      and ns = Array.make ncap 0
      and nd = Array.make ncap 0
      and ne = Array.make ncap 0 in
      let nm = Array.make ncap msg in
      Array.blit s.q_sent 0 nt 0 s.q_len;
      Array.blit s.q_sender 0 ns 0 s.q_len;
      Array.blit s.q_dest 0 nd 0 s.q_len;
      Array.blit s.q_de 0 ne 0 s.q_len;
      Array.blit s.q_msgs 0 nm 0 s.q_len;
      s.q_sent <- nt;
      s.q_sender <- ns;
      s.q_dest <- nd;
      s.q_de <- ne;
      s.q_msgs <- nm
    end;
    s.q_sent.(s.q_len) <- sent;
    s.q_sender.(s.q_len) <- sender;
    s.q_dest.(s.q_len) <- dest;
    s.q_de.(s.q_len) <- de;
    s.q_msgs.(s.q_len) <- msg;
    s.q_len <- s.q_len + 1

  (* Analytic resident cost of a pool, split the way the M1 memory gate
     reports it: vertex-indexed arrays (the wheel's slots included, one
     per node rounded up to a power of two), edge-indexed arrays, and the
     growable message slabs (send buffers + inbox slab + delay-touched
     scratch), whose capacity tracks the peak per-round traffic rather
     than n or m.  Slot bytes only; message payloads are shared values
     and not counted. *)
  type footprint = { node_bytes : int; edge_bytes : int; slab_bytes : int }

  let footprint p =
    let w = 8 in
    let node = ref (Bytes.length p.queued + Bytes.length p.where) in
    node :=
      !node
      + w
        * (Array.length p.receivers + Array.length p.wake
         + Array.length p.bnext + Array.length p.bprev
         + Array.length p.slots + Array.length p.due
         + Array.length p.due_tmp + Array.length p.ib_tail
         + Array.length p.ib_head + Array.length p.wake_sender
         + Array.length p.wake_sent);
    Array.iter
      (fun a ->
        node := !node + (w * (Array.length a.asenders + Array.length a.aoff)))
      p.arenas;
    let edge = w * (Array.length p.edge_bits + Array.length p.fidx) in
    let slab =
      ref
        (w
        * (Array.length p.ib_sender + Array.length p.ib_next
         + Array.length p.ib_msgs + Array.length p.extra_touched))
    in
    Array.iter
      (fun a ->
        slab :=
          !slab
          + w
            * (Array.length a.s_dest + Array.length a.s_eids
             + Array.length a.s_msgs))
      p.arenas;
    { node_bytes = !node; edge_bytes = edge; slab_bytes = !slab }

  let pool g =
    let n = Graph.n g in
    let w = ref 1024 in
    while !w < n do
      w := 2 * !w
    done;
    let p =
      {
        pgraph = g;
        edge_bits = Array.make (2 * Graph.m g) 0;
        extra_touched = [||];
        extra_len = 0;
        fidx = [||];
        queued = Bytes.make n '\000';
        receivers = Array.make n 0;
        receivers_len = 0;
        wake = Array.make n (-1);
        where = Bytes.make n '\000';
        bnext = Array.make n (-1);
        bprev = Array.make n (-1);
        slots = Array.make !w (-1);
        ov_head = -1;
        ov_min = max_int;
        in_wheel = 0;
        due = Array.make n 0;
        due_tmp = Array.make (n / 8) 0;
        dirty = false;
        wake_sender = [||];
        wake_sent = [||];
        ib_head = Array.make n (-1);
        ib_tail = Array.make n (-1);
        ib_sender = [||];
        ib_next = [||];
        ib_msgs = [||];
        ib_len = 0;
        arenas = [| fresh_arena n |];
        in_use = false;
      }
    in
    if Obs.Metrics.enabled () then begin
      let gn, ge = Graph.storage_bytes g in
      Obs.Metrics.set m_graph_node_bytes (float_of_int gn);
      Obs.Metrics.set m_graph_edge_bytes (float_of_int ge);
      let f = footprint p in
      Obs.Metrics.set m_pool_node_bytes (float_of_int f.node_bytes);
      Obs.Metrics.set m_pool_edge_bytes (float_of_int f.edge_bytes)
    end;
    p

  let ensure_arenas p d =
    let cur = Array.length p.arenas in
    if cur < d then begin
      let n = Bytes.length p.queued in
      let na =
        Array.init d (fun i -> if i < cur then p.arenas.(i) else fresh_arena n)
      in
      p.arenas <- na
    end

  (* Clear whatever the previous run left behind (undelivered final-round
     sends, or mid-round state abandoned by an exception) by replaying
     the same send entries the charge pass would have scanned; cost is
     proportional to the leftovers, not to n + m, and every step is
     idempotent so any partially-reset state is safe.  The scheduler is
     clean after any run that ended with every node halted. *)
  let reset_pool p =
    let have_fidx = Array.length p.fidx > 0 in
    Array.iter
      (fun a ->
        for i = 0 to a.asenders_len - 1 do
          Bytes.unsafe_set p.queued a.asenders.(i) '\000'
        done;
        for j = 0 to a.s_len - 1 do
          let de = a.s_eids.(j) in
          p.edge_bits.(de) <- 0;
          if have_fidx then p.fidx.(de) <- 0
        done;
        a.asenders_len <- 0;
        a.s_len <- 0;
        a.afailed <- None)
      p.arenas;
    for i = 0 to p.extra_len - 1 do
      let de = p.extra_touched.(i) in
      p.edge_bits.(de) <- 0;
      if have_fidx then p.fidx.(de) <- 0
    done;
    p.extra_len <- 0;
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

  (* Take a parked [v] off its list; [wake.(v)] must still be the
     deadline it was parked with. *)
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

  (* The earliest parked deadline at or after [lo], or [cap] if that
     comes first: exact, because [settle] leaves no overflow deadline
     inside the wheel's window.  An empty wheel is re-anchored at the
     earliest overflow deadline only when that is the next round to run,
     never past [cap] (a delayed frame's landing round), so the window
     never starts after the next round.  Some node must be parked. *)
  let rec next_deadline p lo ~cap =
    settle p lo;
    if p.in_wheel > 0 then begin
      let mask = Array.length p.slots - 1 in
      let r = ref lo in
      while !r < cap && p.slots.(!r land mask) < 0 do
        incr r
      done;
      !r
    end
    else if p.ov_min < cap then next_deadline p p.ov_min ~cap
    else cap

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

  (* Below this many due nodes, a round is stepped by the coordinating
     domain alone: the work is too small to amortize a barrier. *)
  let par_threshold = 16

  (* Process-wide worker team, shared by every run of this engine
     instance.  Protocols built from many short engine runs (Stage I
     issues thousands) cannot afford a spawn/join per run, so workers are
     spawned once, block between epochs, and are joined by an [at_exit]
     hook.  Exactly one run drives the team at a time — [owner] is held
     for the run's whole duration; a concurrent run that fails to get it
     steps serially, which changes nothing observable (accounting is
     invariant under the domain count).  An epoch takes part of the team
     only, workers [1..tactive]: the others sit it out.  A run that
     needs fewer workers than the team holds first joins the surplus
     ([team_trim]): an idle domain still takes part in every
     stop-the-world collection, so a team left grown by one wide run
     would slow every later run of the process. *)
  type team = {
    tm : Mutex.t;
    tgo : Condition.t;
    tdone : Condition.t;
    mutable tsize : int;
        (* live workers (= length of tdoms); worker [d > tsize] quits *)
    mutable tready : int;  (* workers that recorded their start epoch *)
    mutable tepoch : int;
    mutable tactive : int;  (* workers 1..tactive take part in the epoch *)
    mutable tdone_count : int;
    mutable twork : int -> unit;  (* set by the run holding the team *)
    mutable tdoms : unit Domain.t list;  (* worker tsize first *)
  }

  let team_owner = Mutex.create ()
  let the_team : team option ref = ref None  (* mutated under [team_owner] *)

  let team_worker t d () =
    Mutex.lock t.tm;
    (* Record the epoch this worker starts at, and announce readiness:
       [team_ensure] waits for it, so an epoch bumped after [team_ensure]
       returns is guaranteed to be seen (and answered) by this worker. *)
    let seen = ref t.tepoch in
    t.tready <- t.tready + 1;
    Condition.broadcast t.tdone;
    Mutex.unlock t.tm;
    let stop = ref false in
    while not !stop do
      Mutex.lock t.tm;
      (* An epoch this worker sits out leaves [seen] behind, which is
         harmless: only an epoch that includes it gets past the wait. *)
      while (t.tepoch = !seen || d > t.tactive) && d <= t.tsize do
        Condition.wait t.tgo t.tm
      done;
      if d > t.tsize then stop := true else seen := t.tepoch;
      let work = t.twork in
      Mutex.unlock t.tm;
      if not !stop then begin
        work d;
        Mutex.lock t.tm;
        t.tdone_count <- t.tdone_count + 1;
        if t.tdone_count = t.tactive then Condition.broadcast t.tdone;
        Mutex.unlock t.tm
      end
    done

  (* Called with [team_owner] held, or at exit, with no epoch in
     flight: cut the team down to [k] workers and join the rest. *)
  let team_trim t k =
    if t.tsize > k then begin
      Mutex.lock t.tm;
      let surplus = t.tsize - k in
      let gone = List.filteri (fun i _ -> i < surplus) t.tdoms in
      t.tdoms <- List.filteri (fun i _ -> i >= surplus) t.tdoms;
      t.tsize <- k;
      t.tready <- k;
      Condition.broadcast t.tgo;
      Mutex.unlock t.tm;
      List.iter Domain.join gone
    end

  let team_size () = match !the_team with Some t -> t.tsize | None -> 0

  (* Called with [team_owner] held and no epoch in flight.  Returns a
     team with >= [nworkers] workers (indices 1..), growing or creating
     it as needed, and only after every worker is ready to observe the
     next epoch. *)
  let team_ensure nworkers =
    let t =
      match !the_team with
      | Some t -> t
      | None ->
          let t =
            {
              tm = Mutex.create ();
              tgo = Condition.create ();
              tdone = Condition.create ();
              tsize = 0;
              tready = 0;
              tepoch = 0;
              tactive = 0;
              tdone_count = 0;
              twork = ignore;
              tdoms = [];
            }
          in
          the_team := Some t;
          at_exit (fun () -> team_trim t 0);
          t
    in
    if t.tsize < nworkers then begin
      (* The size grows first: a worker past [tsize] quits at once. *)
      Mutex.lock t.tm;
      let first = t.tsize + 1 in
      t.tsize <- nworkers;
      Mutex.unlock t.tm;
      let doms = ref [] in
      for d = first to nworkers do
        doms := Domain.spawn (team_worker t d) :: !doms
      done;
      Mutex.lock t.tm;
      t.tdoms <- !doms @ t.tdoms;
      while t.tready < t.tsize do
        Condition.wait t.tdone t.tm
      done;
      Mutex.unlock t.tm
    end;
    t

  (* The inbox handed to [resume] is the head of the node's slab chain
     ([-1] when empty); a cursor is a slab index, valid until the hook
     returns. *)
  type inbox = int

  (* One run's state.  The run's steps are the top-level functions below,
     each taking this record, so starting a run allocates the record and
     no closure per step: Stage I makes thousands of short runs.  Kernel
     hooks share one ctx per arena, re-pointed at each node the arena
     steps. *)
  type run = {
    graph : Graph.t;
    p : pool;
    acct : Account.t;
    estats : Stats.t;  (* [Account.stats acct] *)
    mutable current_round : int;
    bw : int;
    d_req : int;  (* requested domains, >= 1 *)
    fast_forward : bool;
    trace : Trace.t option;
    traced : bool;
    mutable ctxs : ctx array;  (* one per arena, set once the run exists *)
    start : ctx -> int -> Compiled.step;
    resume : ctx -> int -> inbox -> Compiled.step;
    mutable live : int;  (* nodes not halted, failed or culled *)
    (* Fault layer; the crash schedule arrays are empty without crashes. *)
    fpol : Faults.policy option;
    crash_from : int array;
    crash_until : int array;
    (* Crash-start events, sorted by round, for honest [crashed_nodes]
       accounting (an event only counts if the node is still running when
       the crash takes effect). *)
    crash_starts : (int * int) array;
    mutable crash_start_i : int;
    mutable culled : int;
    (* Messages the fault layer deferred, bucketed by due round in a ring
       of [max_delay + 1] slots.  Run-local contents; anything still
       queued when the run ends is lost, like any other in-flight
       frame. *)
    dq : dslot array;
    mutable dq_count : int;
    mutable dq_min : int;
    (* Sharding: the phase published to the team, and the team while
       this run holds it. *)
    mutable task_start : bool;
    mutable task_len : int;
    mutable my_team : team option;
    (* Per-round sums, reset by [one_round]. *)
    mutable nd : int;  (* due nodes found so far this round *)
    mutable round_bits : int;
    mutable round_msgs : int;
    mutable round_dropped : int;
    mutable round_duplicated : int;
    mutable round_delayed : int;
    mutable max_frames : int;
  }

  and ctx = { mutable id : int; a : arena; r : run }

  let round c = c.r.current_round

  (* Within one domain nodes run one at a time in ascending id order
     (both at start-up and when resumed), so appending on first use keeps
     each arena's senders list sorted — and because a node steps at most
     once per round, its sends stay contiguous from the offset recorded
     here. *)
  let send_de c dest de msg =
    let p = c.r.p and a = c.a in
    if Bytes.unsafe_get p.queued c.id = '\000' then begin
      Bytes.unsafe_set p.queued c.id '\001';
      a.asenders.(a.asenders_len) <- c.id;
      a.aoff.(a.asenders_len) <- a.s_len;
      a.asenders_len <- a.asenders_len + 1
    end;
    push_send a dest de msg

  let send c ~dest msg =
    let e =
      try Graph.find_edge c.r.graph c.id dest
      with Not_found ->
        invalid_arg
          (Printf.sprintf "Engine.send: %d is not a neighbor of %d" dest c.id)
    in
    send_de c dest ((2 * e) + if c.id < dest then 0 else 1) msg

  let send_port c ~dest ~eid msg =
    send_de c dest ((2 * eid) + if c.id < dest then 0 else 1) msg

  let broadcast c msg =
    (* Port order is neighbor-ascending, matching a [send] per neighbor,
       but with no neighbor-array allocation and no binary search. *)
    let id = c.id in
    Graph.iter_incident c.r.graph id (fun dest e ->
        send_de c dest ((2 * e) + if id < dest then 0 else 1) msg)

  let inbox_is_empty s = s < 0
  let inbox_sender c s = c.r.p.ib_sender.(s)
  let inbox_msg c s = c.r.p.ib_msgs.(s)
  let inbox_next c s = c.r.p.ib_next.(s)

  type result = { stats : Stats.t; completed : bool }

  (* Is node [v] down at the round currently being processed?  Reads
     only immutable schedule arrays and [current_round] (stable during a
     phase), so it is safe from worker domains. *)
  let is_crashed r v =
    Array.length r.crash_from > 0
    && r.crash_from.(v) <= r.current_round
    && r.current_round < r.crash_until.(v)

  (* A hook that raised leaves its node dead and stops its block, exactly
     as a serial loop stops at its prefix: the block's lowest failing
     node is the one that raised. *)
  let fail r a c e =
    r.p.wake.(c.id) <- -1;
    a.afailed <- Some (c.id, e)

  (* Run start-up for nodes [lo, hi) with arena [d]. *)
  let start_range r d lo hi =
    let a = r.p.arenas.(d) and c = r.ctxs.(d) and wake = r.p.wake in
    a.afailed <- None;
    try
      for v = lo to hi - 1 do
        c.id <- v;
        match r.start c v with
        | Compiled.Park k -> wake.(v) <- if k < 1 then 1 else k
        | Compiled.Halt -> wake.(v) <- -1
      done
    with e -> fail r a c e

  (* Step the due-set slice [lo, hi) with arena [d] on this domain's own
     stack, in ascending id order, so each arena's sends come out in
     serial order for its block.  A step writes only [wake.(v)], the
     node's own state and the arena: the coordinator took the due nodes
     off the wheel before the phase and re-parks them after it. *)
  let step_range r d lo hi =
    let p = r.p in
    let a = p.arenas.(d) and c = r.ctxs.(d) and wake = p.wake and due = p.due in
    let now = r.current_round in
    a.astepped <- 0;
    a.afailed <- None;
    try
      for i = lo to hi - 1 do
        let v = due.(i) in
        c.id <- v;
        a.astepped <- a.astepped + 1;
        match r.resume c v p.ib_head.(v) with
        | Compiled.Park k -> wake.(v) <- (now + if k < 1 then 1 else k)
        | Compiled.Halt -> wake.(v) <- -1
      done
    with e -> fail r a c e

  (* Domain [d]'s slice of a [len]-item phase.  The items are cut over
     [min d_req len] blocks, so every block is non-empty and the
     per-phase merges over arenas [0..used-1] see every item; domains
     past that take no part in the phase. *)
  let exec r d =
    let len = r.task_len in
    let used = min r.d_req len in
    let lo = d * len / used and hi = (d + 1) * len / used in
    if r.task_start then start_range r d lo hi else step_range r d lo hi

  (* Published to the team each epoch and run by workers [1..used-1].
     An engine bug or OOM on a worker is recorded in its arena rather
     than deadlocking the barrier (a real node failure recorded by the
     shard takes precedence in [check_failures]). *)
  let work r d =
    try exec r d
    with e ->
      let a = r.p.arenas.(d) in
      if a.afailed = None then a.afailed <- Some (max_int, e)

  let acquire_team r =
    match r.my_team with
    | Some t -> Some t
    | None ->
        (* Another run (a concurrent tester in a different domain) may
           hold the team; stepping serially instead is observationally
           identical. *)
        if Mutex.try_lock team_owner then begin
          let t = team_ensure (r.d_req - 1) in
          (* No other run touches the team while this one holds it. *)
          t.twork <- work r;
          r.my_team <- Some t;
          Some t
        end
        else None

  let release_team r =
    if r.my_team <> None then begin
      r.my_team <- None;
      Mutex.unlock team_owner
    end

  (* Sharded phase execution over the process-wide team.  Each phase (the
     start-up over the node ids, or a round's step over its due set) of
     [len] items is one epoch when worthwhile: the coordinator publishes
     the task under the team mutex, takes block 0 itself, and waits for
     every worker.  The mutex acquire/release pairs around each epoch
     establish the happens-before edges that make every per-node write
     visible across domains; there is no other cross-domain
     communication.  The team is acquired lazily on the first phase big
     enough to shard and held for the rest of the run.  Returns the
     number of domains used.  Accounting is invariant: the merge reads
     arenas 0..D-1 in order, so any D (including the serial fallback,
     D = 1 with arena 0) yields byte-identical engine state. *)
  let run_phase r ~start len =
    r.task_start <- start;
    r.task_len <- len;
    let team =
      if r.d_req > 1 && len >= par_threshold then acquire_team r else None
    in
    match team with
    | None ->
        if start then start_range r 0 0 len else step_range r 0 0 len;
        1
    | Some t ->
        let used = min r.d_req len in
        Mutex.lock t.tm;
        t.tdone_count <- 0;
        t.tactive <- used - 1;
        t.tepoch <- t.tepoch + 1;
        Condition.broadcast t.tgo;
        Mutex.unlock t.tm;
        exec r 0;
        Mutex.lock t.tm;
        while t.tdone_count < t.tactive do
          Condition.wait t.tdone t.tm
        done;
        Mutex.unlock t.tm;
        used

  (* Post-phase merges, all on the coordinating domain. *)
  let check_failures r =
    let best = ref None in
    for d = 0 to r.d_req - 1 do
      match r.p.arenas.(d).afailed with
      | None -> ()
      | Some (v, _) as f -> (
          match !best with Some (bv, _) when bv <= v -> () | _ -> best := f)
    done;
    match !best with Some (_, e) -> raise e | None -> ()

  let pending_sends r =
    let s = ref 0 in
    for d = 0 to r.d_req - 1 do
      s := !s + r.p.arenas.(d).asenders_len
    done;
    !s

  (* Crash events taking effect by the current round: traced, and
     returned as a count for {!Account}.  Called between rounds, when
     every live node is parked; fast-forward never skips past a live
     node's crash round (see [skip_target]).  A node that goes down
     leaves the wheel's deadline order: a crash-stopped one is culled at
     once (it can never resume, and waiting for its deadline would
     stretch the run), and a crash-recovering one moves its deadline to
     its recovery round if that is later — a frozen node observes
     nothing until then. *)
  let crashes_due r =
    let p = r.p in
    let k = ref 0 in
    let now = r.current_round in
    while
      r.crash_start_i < Array.length r.crash_starts
      && fst r.crash_starts.(r.crash_start_i) <= now
    do
      let from, v = r.crash_starts.(r.crash_start_i) in
      if p.wake.(v) >= 0 then begin
        incr k;
        let until = r.crash_until.(v) in
        (match r.trace with
        | Some tr ->
            Trace.fault tr ~round:from ~kind:Trace.Crash ~sender:v ~dest:v
              ~edge:(-1)
              ~info:(if until = max_int then -1 else until - from)
        | None -> ());
        if until = max_int then begin
          unpark p v;
          p.wake.(v) <- -1;
          r.live <- r.live - 1;
          r.culled <- r.culled + 1
        end
        else if now < until && p.wake.(v) < until then begin
          unpark p v;
          park p ~now v until
        end
      end;
      r.crash_start_i <- r.crash_start_i + 1
    done;
    !k

  (* Live nodes down at the current round; only the fast-forward-off step
     count needs them. *)
  let down_now r =
    let k = ref 0 in
    for i = 0 to r.crash_start_i - 1 do
      let v = snd r.crash_starts.(i) in
      if r.p.wake.(v) >= 0 && is_crashed r v then incr k
    done;
    !k

  (* Resume/park trace events are predicted on the coordinating domain,
     never recorded from workers: before a step phase, over the nodes the
     phase steps (ascending id order — the serial order); after the
     barrier, every candidate still live has parked again.  This keeps
     the event stream byte-identical for every domain count.  With
     fast-forward off the candidates are every live node that is not
     down (the legacy baseline stepped them all every round), and a
     re-parked node reports the next round as its wake, as that
     baseline's one-round suspension did. *)
  let trace_resume r tr v =
    (* Prefer-arrival rule: a resume with any delivery this round is
       blamed on the first-delivered frame even if its deadline also
       expired — the only attribution that is invariant under
       fast-forward (ff-off spin wakes are pure Deadline resumes, arrival
       rounds look identical either way). *)
    let p = r.p in
    if p.ib_head.(v) >= 0 then
      Trace.fiber_resume tr ~round:r.current_round ~node:v
        ~cause:Trace.Wake_deliver ~sender:p.wake_sender.(v)
        ~sent:p.wake_sent.(v)
    else
      Trace.fiber_resume tr ~round:r.current_round ~node:v
        ~cause:Trace.Wake_deadline ~sender:(-1) ~sent:(-1)

  let trace_prescan r tr nd =
    let p = r.p in
    if r.fast_forward then
      for i = 0 to nd - 1 do
        trace_resume r tr p.due.(i)
      done
    else
      for v = 0 to Array.length p.wake - 1 do
        if p.wake.(v) >= 0 && not (is_crashed r v) then trace_resume r tr v
      done

  (* Halted and failed candidates are no longer live and are skipped;
     with fast-forward off, candidates past a failed hook were never
     stepped and keep this round as their wake. *)
  let trace_postscan r tr nd ~failed =
    let p = r.p and now = r.current_round in
    if r.fast_forward then
      for i = 0 to nd - 1 do
        let v = p.due.(i) in
        if p.wake.(v) >= 0 then
          Trace.fiber_park tr ~round:now ~node:v ~wake:p.wake.(v)
      done
    else
      for v = 0 to Array.length p.wake - 1 do
        if p.wake.(v) >= 0 && not (is_crashed r v) then
          Trace.fiber_park tr ~round:now ~node:v
            ~wake:(if v > failed then now else now + 1)
      done

  let charge_wire r de b =
    r.round_msgs <- r.round_msgs + 1;
    r.round_bits <- r.round_bits + b;
    r.p.edge_bits.(de) <- r.p.edge_bits.(de) + b

  let trace_fault r kind ~sender ~dest ~de ~info =
    match r.trace with
    | Some tr ->
        Trace.fault tr ~round:r.current_round ~kind ~sender ~dest ~edge:de
          ~info
    | None -> ()

  (* The first delivery of the round to [dest]: list it as a receiver,
     and make it due if it is parked. *)
  let first_arrival r ~sent sender dest =
    let p = r.p in
    p.receivers.(p.receivers_len) <- dest;
    p.receivers_len <- p.receivers_len + 1;
    if Bytes.unsafe_get p.where dest <> '\000' then begin
      p.due.(r.nd) <- dest;
      r.nd <- r.nd + 1
    end;
    if r.traced then begin
      p.wake_sender.(dest) <- sender;
      p.wake_sent.(dest) <- sent
    end

  (* A message reaching a node that is down is lost — the
     CONGEST-faithful model is silence, never an error. *)
  let deliver r ~sent ~de ~bits sender dest msg =
    let p = r.p in
    if is_crashed r dest then begin
      r.round_dropped <- r.round_dropped + 1;
      trace_fault r Trace.Down_drop ~sender ~dest ~de ~info:0
    end
    else begin
      if p.ib_head.(dest) < 0 then first_arrival r ~sent sender dest;
      push_inbox p ~sender ~dest msg;
      match r.trace with
      | Some tr ->
          Trace.message tr ~round:r.current_round ~sent ~sender ~dest
            ~edge:de ~bits
      | None -> ()
    end

  (* [b] bits on one directed edge this round exceed the bandwidth. *)
  let charge_oversized r b =
    r.estats.oversized <- r.estats.oversized + 1;
    let frames = Stats.frames ~bandwidth:r.bw b in
    if frames > r.max_frames then r.max_frames <- frames

  (* Charge bandwidth on a directed edge at its first touch; zeroing
     [edge_bits] doubles as the visited mark. *)
  let charge_de r de =
    let p = r.p and s = r.estats in
    let b = p.edge_bits.(de) in
    if b <> 0 then begin
      p.edge_bits.(de) <- 0;
      if b > s.max_edge_bits then s.max_edge_bits <- b;
      if b > r.bw then charge_oversized r b
    end

  (* Deferred messages due this round arrive first, in original send
     order, then fresh sends — so under delays an inbox is no longer
     guaranteed to be sorted by sender.  Bits are charged at the round
     the frame actually occupies. *)
  let deliver_deferred r =
    let p = r.p and now = r.current_round in
    (* Exact [dq_min] maintenance plus the fast-forward cap mean the only
       due entries live in this round's bucket, already in enqueue (=
       global sequence) order. *)
    let slot = r.dq.(now mod Array.length r.dq) in
    assert (r.dq_min = now && slot.q_len > 0 && slot.q_due = now);
    for j = 0 to slot.q_len - 1 do
      let de = slot.q_de.(j) in
      let msg = slot.q_msgs.(j) in
      let b = Msg.bits msg in
      (* The send-entry re-scan cannot see this arc; remember it for the
         charge pass (first touch wins: deferred arrivals precede fresh
         sends). *)
      if p.edge_bits.(de) = 0 then push_extra p de;
      charge_wire r de b;
      deliver r ~sent:slot.q_sent.(j) ~de ~bits:b slot.q_sender.(j)
        slot.q_dest.(j) msg
    done;
    r.dq_count <- r.dq_count - slot.q_len;
    slot.q_len <- 0;
    slot.q_due <- -1;
    r.dq_min <- max_int;
    if r.dq_count > 0 then
      Array.iter
        (fun s -> if s.q_len > 0 && s.q_due < r.dq_min then r.dq_min <- s.q_due)
        r.dq

  (* One fresh send through the fault layer.  Decisions are per message,
     drawn from the splittable PRNG keyed by (edge, round, per-edge
     index) in the serial delivery order, so the schedule is invariant
     under the domain count. *)
  let deliver_faulted r fp ~sent ~de ~b v dest msg =
    let p = r.p in
    if is_crashed r v then begin
      (* The sender went down with this frame still queued: nothing ever
         reaches the wire. *)
      r.round_dropped <- r.round_dropped + 1;
      trace_fault r Trace.Down_drop ~sender:v ~dest ~de ~info:0
    end
    else begin
      let k = p.fidx.(de) in
      p.fidx.(de) <- k + 1;
      match Faults.draw fp ~edge:de ~round:r.current_round ~k with
      | Faults.Deliver ->
          charge_wire r de b;
          deliver r ~sent ~de ~bits:b v dest msg
      | Faults.Drop ->
          charge_wire r de b;
          r.round_dropped <- r.round_dropped + 1;
          trace_fault r Trace.Drop ~sender:v ~dest ~de ~info:0
      | Faults.Truncate ->
          (* A truncated frame occupies at most one full bandwidth slot
             on the wire and is undecodable at the receiver: silence,
             never corruption. *)
          charge_wire r de (if b < r.bw then b else r.bw);
          r.round_dropped <- r.round_dropped + 1;
          trace_fault r Trace.Truncate ~sender:v ~dest ~de ~info:b
      | Faults.Duplicate ->
          charge_wire r de b;
          charge_wire r de b;
          r.round_duplicated <- r.round_duplicated + 1;
          trace_fault r Trace.Duplicate ~sender:v ~dest ~de ~info:0;
          deliver r ~sent ~de ~bits:b v dest msg;
          deliver r ~sent ~de ~bits:b v dest msg
      | Faults.Delay dl ->
          r.round_delayed <- r.round_delayed + 1;
          trace_fault r Trace.Delay ~sender:v ~dest ~de ~info:dl;
          let at = r.current_round + dl in
          let slot = r.dq.(at mod Array.length r.dq) in
          assert (slot.q_len = 0 || slot.q_due = at);
          if slot.q_len = 0 then slot.q_due <- at;
          push_dslot slot ~sent ~sender:v ~dest ~de msg;
          r.dq_count <- r.dq_count + 1;
          if at < r.dq_min then r.dq_min <- at
    end

  let one_round r =
    let p = r.p in
    let wake = p.wake and due = p.due and n = Array.length p.wake in
    (* The clock follows [Stats.rounds], which also moves by skips. *)
    r.current_round <- Account.open_round r.acct;
    let now = r.current_round in
    r.round_bits <- 0;
    r.round_msgs <- 0;
    r.round_dropped <- 0;
    r.round_duplicated <- 0;
    r.round_delayed <- 0;
    r.nd <- 0;
    let has_crash = Array.length r.crash_from > 0 in
    let round_crashed = if has_crash then crashes_due r else 0 in
    (* Deliver: drain arena senders (ascending blocks, each ascending)
       into the inbox slab, summing bits per directed edge.  Each sender's
       entry span is drained in reverse send order, so every inbox chain
       is sorted by sender, same-sender messages in reverse send order.
       Send entries are NOT consumed here — the charge pass below
       re-scans them in the same order to recover the touched edges, then
       resets the buffers (always before the step phase queues new
       sends).  [Msg.bits] is memoized for a message physically equal to
       the previous one (a broadcast, a relayed payload); no hook runs
       inside this pass, so the memo cannot go stale. *)
    if r.dq_min <= now then deliver_deferred r;
    let sent = now - 1 in
    let edge_bits = p.edge_bits and ib_head = p.ib_head in
    for d = 0 to r.d_req - 1 do
      let a = p.arenas.(d) in
      let prev = ref (-1) and prev_bits = ref 0 in
      for i = 0 to a.asenders_len - 1 do
        let v = a.asenders.(i) in
        Bytes.unsafe_set p.queued v '\000';
        let lo = a.aoff.(i) in
        let hi = if i + 1 < a.asenders_len then a.aoff.(i + 1) else a.s_len in
        for j = hi - 1 downto lo do
          let dest = a.s_dest.(j) and de = a.s_eids.(j) in
          let msg = a.s_msgs.(j) in
          let b =
            if !prev >= 0 && a.s_msgs.(!prev) == msg then !prev_bits
            else begin
              let b = Msg.bits msg in
              prev_bits := b;
              b
            end
          in
          prev := j;
          match r.fpol with
          | None -> (
              (* [charge_wire] and [deliver], without faults. *)
              r.round_msgs <- r.round_msgs + 1;
              r.round_bits <- r.round_bits + b;
              edge_bits.(de) <- edge_bits.(de) + b;
              if ib_head.(dest) < 0 then first_arrival r ~sent v dest;
              push_inbox p ~sender:v ~dest msg;
              match r.trace with
              | Some tr ->
                  Trace.message tr ~round:now ~sent ~sender:v ~dest ~edge:de
                    ~bits:b
              | None -> ())
          | Some fp -> deliver_faulted r fp ~sent ~de ~b v dest msg
        done
      done
    done;
    (* Charge bandwidth per directed edge by re-scanning what was
       delivered: deferred-arrival arcs first ([extra_touched]), then the
       send entries in the exact drain order above, so an arc is charged
       at its first touch.  The
       scan also resets [fidx] and finally the send buffers themselves,
       always before the step phase queues new sends. *)
    r.max_frames <- 1;
    let faulted = Option.is_some r.fpol and stats = r.estats in
    for i = 0 to p.extra_len - 1 do
      charge_de r p.extra_touched.(i)
    done;
    p.extra_len <- 0;
    for d = 0 to r.d_req - 1 do
      let a = p.arenas.(d) in
      for i = 0 to a.asenders_len - 1 do
        let lo = a.aoff.(i) in
        let hi = if i + 1 < a.asenders_len then a.aoff.(i + 1) else a.s_len in
        for j = hi - 1 downto lo do
          let de = a.s_eids.(j) in
          if faulted then p.fidx.(de) <- 0;
          (* [charge_de], inline. *)
          let b = edge_bits.(de) in
          if b <> 0 then begin
            edge_bits.(de) <- 0;
            if b > stats.max_edge_bits then stats.max_edge_bits <- b;
            if b > r.bw then charge_oversized r b
          end
        done
      done;
      a.asenders_len <- 0;
      a.s_len <- 0
    done;
    (* The round's deadline slot; receivers are already listed.  A dense
       due set is re-listed in order by one scan over the ids. *)
    settle p now;
    let v = ref p.slots.(now land (Array.length p.slots - 1)) in
    while !v >= 0 do
      if p.ib_head.(!v) < 0 && wake.(!v) = now then begin
        due.(r.nd) <- !v;
        r.nd <- r.nd + 1
      end;
      v := p.bnext.(!v)
    done;
    let nd = r.nd in
    if 8 * nd >= n then begin
      let k = ref 0 in
      for u = 0 to n - 1 do
        if
          Bytes.unsafe_get p.where u <> '\000'
          && (p.ib_head.(u) >= 0 || wake.(u) = now)
        then begin
          due.(!k) <- u;
          incr k
        end
      done
    end
    else sort_range due p.due_tmp 0 nd;
    (match r.trace with Some tr -> trace_prescan r tr nd | None -> ());
    (* Step the due nodes (sharded when worthwhile).  Fast-forward off is
       the legacy baseline, which stepped every live node every round and
       ran its hook only on an arrival or at its deadline: the hooks run
       exactly as here, but every live node that is not down counts as
       stepped. *)
    let live_before = r.live in
    for i = 0 to nd - 1 do
      unpark p due.(i)
    done;
    let nd_used = run_phase r ~start:false nd in
    let failed = ref max_int and stepped = ref 0 in
    for d = 0 to nd_used - 1 do
      let a = p.arenas.(d) in
      stepped := !stepped + a.astepped;
      match a.afailed with
      | Some (v, _) when v < !failed -> failed := v
      | _ -> ()
    done;
    let failed = !failed in
    let stepped =
      if r.fast_forward then !stepped
      else begin
        let down = if has_crash then down_now r else 0 in
        if failed = max_int then live_before - down
        else begin
          (* Every live node up to the failed one was stepped: the parked
             ones below it, and the due ones up to it. *)
          let c = ref 0 in
          for u = 0 to failed - 1 do
            if Bytes.unsafe_get p.where u <> '\000' && not (is_crashed r u)
            then incr c
          done;
          for i = 0 to nd - 1 do
            if due.(i) <= failed then incr c
          done;
          !c
        end
      end
    in
    (match r.trace with
    | Some tr -> trace_postscan r tr nd ~failed
    | None -> ());
    Account.close_round r.acct ~stepped ~domains:nd_used
      ~dropped:r.round_dropped ~duplicated:r.round_duplicated
      ~delayed:r.round_delayed ~crashed:round_crashed ~bits:r.round_bits
      ~frames:r.max_frames ~messages:r.round_msgs;
    (match r.trace with
    | Some tr ->
        if nd_used > 1 then begin
          let mx = ref 0 in
          for d = 0 to nd_used - 1 do
            if p.arenas.(d).astepped > !mx then mx := p.arenas.(d).astepped
          done;
          Trace.shard tr ~round:now ~domains:nd_used ~max_stepped:!mx ~stepped
        end
    | None -> ());
    (* A propagated hook exception aborts here, after the round's
       accounting; the next run's [reset_pool] clears the leftovers. *)
    check_failures r;
    (* Re-park the due nodes that parked again. *)
    for i = 0 to nd - 1 do
      let v = due.(i) in
      if wake.(v) >= 0 then park p ~now v wake.(v) else r.live <- r.live - 1
    done;
    (* Steps read inbox chains in place, so clear every receiver's chain
       here and recycle the slab: the next round appends from slot 0. *)
    for i = 0 to p.receivers_len - 1 do
      p.ib_head.(p.receivers.(i)) <- -1
    done;
    p.receivers_len <- 0;
    p.ib_len <- 0

  (* Quiescent-round fast-forward: with no frame in flight anywhere and
     every live node parked on a deadline strictly in the future, the
     rounds before the earliest deadline are provably empty.  Under
     faults, a deferred message's due round bounds the skip just like
     the earliest deadline does: the round a delayed frame lands in must
     be simulated, and so must the round a live node goes down in: a
     crash-stopped node leaves the run there, and skipping past that
     round to its deadline would stretch the run.  Crash events of nodes
     that already halted change nothing and are passed over here. *)
  let skip_target r =
    if r.fast_forward && pending_sends r = 0 then begin
      let n_starts = Array.length r.crash_starts in
      while
        r.crash_start_i < n_starts
        && r.p.wake.(snd r.crash_starts.(r.crash_start_i)) < 0
      do
        r.crash_start_i <- r.crash_start_i + 1
      done;
      let crash_cap =
        if r.crash_start_i < n_starts then fst r.crash_starts.(r.crash_start_i)
        else max_int
      in
      next_deadline r.p (r.current_round + 1) ~cap:(min r.dq_min crash_cap)
    end
    else max_int

  let drive r =
    let p = r.p and n = Array.length r.p.wake in
    let (_ : int) = run_phase r ~start:true n in
    check_failures r;
    for v = 0 to n - 1 do
      if p.wake.(v) >= 0 then begin
        park p ~now:0 v p.wake.(v);
        r.live <- r.live + 1
      end
    done;
    (match r.trace with
    | Some tr ->
        (* With fast-forward off the first wake is round 1. *)
        for v = 0 to n - 1 do
          if p.wake.(v) >= 0 then
            Trace.fiber_park tr ~round:0 ~node:v
              ~wake:(if r.fast_forward then p.wake.(v) else 1)
        done
    | None -> ());
    let completed =
      Account.drive r.acct
        ~live:(fun () -> r.live > 0)
        ~wake:(fun () -> skip_target r)
        ~step:(fun () -> one_round r)
    in
    if r.live = 0 then p.dirty <- false;
    completed && r.culled = 0

  let run_kernel ?bandwidth ?(max_rounds = 1_000_000) ?telemetry ?trace
      ?(domains = 1) ?(fast_forward = true) ?faults ?on_round ?pool:opool g
      ~start ~resume =
    let n = Graph.n g in
    let acct =
      Account.create ~bandwidth ~telemetry ~trace ~on_round ~max_rounds g
    in
    let d_req = if domains < 1 then 1 else domains in
    (* Fault layer.  All decisions happen during delivery — the serial,
       deterministically ordered half of a round — so the injected
       schedule is a pure function of (policy, directed edge, round,
       per-edge message index): byte-identical for any domain count and
       for fast-forward on/off. *)
    let fpol =
      match faults with Some f when not (Faults.is_none f) -> Some f | _ -> None
    in
    let crash_from, crash_until =
      match Option.bind fpol (fun f -> Faults.crash_schedule f ~n) with
      | Some s -> s
      | None -> ([||], [||])
    in
    let crash_starts =
      let l = ref [] in
      Array.iteri
        (fun v from -> if from <> max_int then l := (from, v) :: !l)
        crash_from;
      let a = Array.of_list !l in
      Array.sort compare a;
      a
    in
    let p, owned =
      match opool with
      | Some p when p.pgraph == g && not p.in_use ->
          reset_pool p;
          (p, true)
      | _ -> (pool g, false)
    in
    ensure_arenas p d_req;
    p.in_use <- true;
    p.dirty <- true;
    if trace <> None && Array.length p.wake_sender < n then begin
      p.wake_sender <- Array.make (max 1 n) (-1);
      p.wake_sent <- Array.make (max 1 n) (-1)
    end;
    (* The per-edge fault index is pool-owned so repeated faulted runs on
       the same pool do not pay a fresh 2m allocation each ([fidx] is
       reset by the charge re-scan, entry by entry). *)
    if fpol <> None && Array.length p.fidx < 2 * Graph.m g then
      p.fidx <- Array.make (2 * Graph.m g) 0;
    let estats = Account.stats acct in
    let r =
      {
        graph = g;
        p;
        acct;
        estats;
        current_round = 0;
        bw = estats.Stats.bandwidth;
        d_req;
        fast_forward;
        trace;
        traced = Option.is_some trace;
        ctxs = [||];
        start;
        resume;
        live = 0;
        fpol;
        crash_from;
        crash_until;
        crash_starts;
        crash_start_i = 0;
        culled = 0;
        dq =
          (match fpol with
          | Some f -> Array.init (f.Faults.max_delay + 1) (fun _ -> fresh_dslot ())
          | None -> [||]);
        dq_count = 0;
        dq_min = max_int;
        task_start = false;
        task_len = 0;
        my_team = None;
        nd = 0;
        round_bits = 0;
        round_msgs = 0;
        round_dropped = 0;
        round_duplicated = 0;
        round_delayed = 0;
        max_frames = 1;
      }
    in
    r.ctxs <- Array.init d_req (fun d -> { id = -1; a = p.arenas.(d); r });
    (* A narrower run first joins the team's surplus workers. *)
    if Mutex.try_lock team_owner then begin
      Option.iter (fun t -> team_trim t (d_req - 1)) !the_team;
      Mutex.unlock team_owner
    end;
    let completed =
      Account.guard acct
        ~release:(fun () ->
          release_team r;
          if owned then p.in_use <- false)
        (fun () -> drive r)
    in
    Account.finish acct ~domains:d_req ~completed;
    { stats = estats; completed }
end
