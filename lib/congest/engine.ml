open Graphlib

module type MESSAGE = sig
  type t

  val bits : t -> int
end

exception Stopped

(* Breaks out of a shard's stepping loop after a kernel hook raised; never
   escapes this module. *)
exception Shard_stop

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
     disjoint block of nodes; everything a kernel hook can mutate that is
     not indexed by its own id (the senders worklist, queued sends, a
     raised exception) lands in the stepping domain's arena and is merged
     by the coordinating domain, in arena order, after the barrier.
     Blocks partition the node-id-sorted worklists into contiguous
     ascending ranges, so concatenating arenas 0..D-1
     reproduces exactly the order a serial engine would have produced.

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
    mutable afails : (int * int * exn) list;
        (* all failing nodes in block ([`Record] mode), reverse chron. *)
    mutable astepped : int;  (* nodes stepped this phase *)
    mutable akept : int;  (* nodes still live after this phase *)
    mutable aculled : int;  (* crash-stopped nodes dropped this phase *)
    mutable amin_wake : int;  (* min wake round over kept nodes *)
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
      afails = [];
      astepped = 0;
      akept = 0;
      aculled = 0;
      amin_wake = max_int;
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

  (* Preallocated per-graph delivery state, reusable across runs so that a
     protocol built from many short engine runs (Stage I's primitives) does
     not pay an O(n + m) allocation bill per run.  One run at a time; a
     nested [run] on a busy pool silently falls back to fresh allocation. *)
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
    (* Worklist of parked nodes; ascending id order (nodes only ever
       leave), so each round costs O(live + messages) rather than O(n). *)
    live : int array;
    (* The parked mark and deadline in one: the absolute round at which a
       parked node resumes even with an empty inbox, or -1 once it halted
       or failed.  Start-up writes every node's entry, so no reset is
       needed. *)
    wake : int array;
    (* Causal parent of the round's first inbox delivery per node —
       (sender, send round) of the frame that flipped [ib_head] from
       empty — feeding the trace's Resume wake-cause slots.  Valid only
       while [ib_head.(v) >= 0]; lazily allocated by the first traced
       run so untraced pools pay nothing. *)
    mutable wake_sender : int array;
    mutable wake_sent : int array;
    arena_of : int array;  (* node -> index of the arena stepping it *)
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
     reports it: vertex-indexed arrays, edge-indexed arrays, and the
     growable message slabs (send buffers + inbox slab + delay-touched
     scratch), whose capacity tracks the peak per-round traffic rather
     than n or m.  Slot bytes only; message payloads are shared values
     and not counted. *)
  type footprint = { node_bytes : int; edge_bytes : int; slab_bytes : int }

  let footprint p =
    let w = 8 in
    let node = ref (Bytes.length p.queued) in
    node :=
      !node
      + w
        * (Array.length p.receivers + Array.length p.live
         + Array.length p.wake + Array.length p.arena_of
         + Array.length p.ib_tail + Array.length p.ib_head
         + Array.length p.wake_sender + Array.length p.wake_sent);
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
        live = Array.make n 0;
        wake = Array.make n (-1);
        wake_sender = [||];
        wake_sent = [||];
        arena_of = Array.make n 0;
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
     idempotent so any partially-reset state is safe. *)
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
        a.afailed <- None;
        a.afails <- [])
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
    p.ib_len <- 0

  type engine = {
    graph : Graph.t;
    p : pool;
    estats : Stats.t;
    mutable fail_log : (int * int * exn) list;
        (* (round, node, exn) in [`Record] mode, reverse chronological *)
    mutable current_round : int;
  }

  (* Kernel hooks share one ctx per arena, re-pointed at each node the
     arena steps; a node program gets a ctx of its own. *)
  type ctx = { mutable id : int; eng : engine }

  (* [Suspend k] parks a node program's fiber until the first round with
     a non-empty inbox, or unconditionally after [k] rounds (k >= 1). *)
  type _ Effect.t += Suspend : int -> (int * Msg.t) list Effect.t

  let my_id c = c.id
  let n_nodes c = Graph.n c.eng.graph
  let degree c = Graph.degree c.eng.graph c.id
  let neighbors c = Graph.neighbors c.eng.graph c.id
  let incident c = Graph.incident c.eng.graph c.id
  let round c = c.eng.current_round

  (* Within one domain nodes run one at a time in ascending id order
     (both at start-up and when resumed), so appending on first use keeps
     each arena's senders list sorted — and because a node steps at most
     once per round, its sends stay contiguous from the offset recorded
     here. *)
  let send_de c dest de msg =
    let p = c.eng.p in
    let a = p.arenas.(p.arena_of.(c.id)) in
    if Bytes.unsafe_get p.queued c.id = '\000' then begin
      Bytes.unsafe_set p.queued c.id '\001';
      a.asenders.(a.asenders_len) <- c.id;
      a.aoff.(a.asenders_len) <- a.s_len;
      a.asenders_len <- a.asenders_len + 1
    end;
    push_send a dest de msg

  let send c ~dest msg =
    let e =
      try Graph.find_edge c.eng.graph c.id dest
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
    Graph.iter_incident c.eng.graph id (fun dest e ->
        send_de c dest ((2 * e) + if id < dest then 0 else 1) msg)

  (* With fast-forward off, the stepping loop itself steps every parked
     node every round (see [step_range]); [wait] is the same either way. *)
  let wait _ k = if k <= 0 then [] else Effect.perform (Suspend k)
  let sync c = wait c 1

  (* The inbox handed to [resume] is the head of the node's slab chain
     ([-1] when empty); a cursor is a slab index, valid until the hook
     returns. *)
  type inbox = int

  let inbox_is_empty s = s < 0
  let inbox_sender c s = c.eng.p.ib_sender.(s)
  let inbox_msg c s = c.eng.p.ib_msgs.(s)
  let inbox_next c s = c.eng.p.ib_next.(s)

  (* The list [wait] returns, in delivery order. *)
  let[@tail_mod_cons] rec inbox_list p s =
    if s < 0 then []
    else (p.ib_sender.(s), p.ib_msgs.(s)) :: inbox_list p p.ib_next.(s)

  let idle c k =
    let deadline = c.eng.current_round + k in
    let rec loop () =
      let left = deadline - c.eng.current_round in
      if left > 0 then begin
        ignore (wait c left);
        loop ()
      end
    in
    loop ()

  type 'o result = {
    outputs : 'o option array;
    failures : (int * int * exn) list;
        (* (round, node, exn), chronological; non-empty only in [`Record]
           mode — see [?on_error] *)
    stats : Stats.t;
    completed : bool;
  }

  (* Below this many live nodes, a round is stepped by the coordinating
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
    mutable twork : int -> unit;  (* set per epoch by the owning run *)
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

  let run_kernel ?bandwidth ?(strict = false)
      ?(max_rounds = 1_000_000) ?telemetry ?trace ?(domains = 1)
      ?(fast_forward = true) ?faults ?on_round ?(on_error = `Propagate)
      ?pool:opool g ~start ~resume =
    let n = Graph.n g in
    let acct =
      Account.create ~bandwidth ~telemetry ~trace ~on_round ~max_rounds g
    in
    let bw = (Account.stats acct).Stats.bandwidth in
    let d_req = if domains < 1 then 1 else domains in
    let record_errors = on_error = `Record in
    (* Fault layer.  All decisions happen during delivery — the serial,
       deterministically ordered half of a round — so the injected
       schedule is a pure function of (policy, directed edge, round,
       per-edge message index): byte-identical for any domain count and
       for fast-forward on/off. *)
    let fpol =
      match faults with Some f when not (Faults.is_none f) -> Some f | _ -> None
    in
    let crash_from, crash_until =
      match fpol with
      | Some f -> (
          match Faults.crash_schedule f ~n with
          | Some (cf, cu) -> (cf, cu)
          | None -> ([||], [||]))
      | None -> ([||], [||])
    in
    let has_crash = Array.length crash_from > 0 in
    let p, owned =
      match opool with
      | Some p when p.pgraph == g && not p.in_use ->
          reset_pool p;
          (p, true)
      | _ -> (pool g, false)
    in
    ensure_arenas p d_req;
    p.in_use <- true;
    let traced = trace <> None in
    if traced && Array.length p.wake_sender < n then begin
      p.wake_sender <- Array.make (max 1 n) (-1);
      p.wake_sent <- Array.make (max 1 n) (-1)
    end;
    let arenas = p.arenas in
    let eng =
      {
        graph = g;
        p;
        estats = Account.stats acct;
        fail_log = [];
        current_round = 0;
      }
    in
    let ctxs = Array.init d_req (fun _ -> { id = -1; eng }) in
    let wake = p.wake in
    (* Is node [v] down at the round currently being processed?  Reads
       only immutable schedule arrays and [current_round] (stable during
       a phase), so it is safe from worker domains. *)
    let is_crashed v =
      has_crash
      && crash_from.(v) <= eng.current_round
      && eng.current_round < crash_until.(v)
    in
    (* Crash-start events, sorted by round, for honest [crashed_nodes]
       accounting (an event only counts if the node is still running when
       the crash takes effect). *)
    let crash_starts =
      if not has_crash then [||]
      else begin
        let l = ref [] in
        for v = 0 to n - 1 do
          if crash_from.(v) <> max_int then l := (crash_from.(v), v) :: !l
        done;
        let a = Array.of_list !l in
        Array.sort compare a;
        a
      end
    in
    let crash_start_i = ref 0 in
    (* Messages the fault layer deferred, bucketed by due round in a ring
       of [max_delay + 1] slots.  Run-local contents; the slots themselves
       are cheap (empty arrays) and anything still queued when the run
       ends is lost, like any other in-flight frame. *)
    let dq =
      match fpol with
      | Some f -> Array.init (f.Faults.max_delay + 1) (fun _ -> fresh_dslot ())
      | None -> [||]
    in
    let dq_count = ref 0 in
    let dq_min = ref max_int in
    (* The per-edge fault index is pool-owned so repeated faulted runs on
       the same pool do not pay a fresh 2m allocation each ([fidx] is
       reset by the charge re-scan, entry by entry). *)
    (match fpol with
    | Some _ ->
        if Array.length p.fidx < 2 * Graph.m g then
          p.fidx <- Array.make (2 * Graph.m g) 0
    | None -> ());
    let next_k de =
      let k = p.fidx.(de) in
      p.fidx.(de) <- k + 1;
      k
    in
    let live = p.live in
    let live_len = ref 0 in
    (* A hook that raised leaves its node dead.  In [`Propagate] mode,
       record the (lowest) failing node of the block and stop the block —
       exactly what a serial loop does for its prefix; in [`Record] mode,
       log the failure and keep stepping the block, so every failing node
       is observed regardless of the domain count. *)
    let fail a v e =
      wake.(v) <- -1;
      if record_errors then a.afails <- (eng.current_round, v, e) :: a.afails
      else begin
        a.afailed <- Some (v, e);
        raise Shard_stop
      end
    in
    (* Run start-up for nodes [lo, hi) with arena [d]. *)
    let start_range d lo hi =
      let a = arenas.(d) and c = ctxs.(d) in
      a.afailed <- None;
      a.afails <- [];
      try
        for v = lo to hi - 1 do
          p.arena_of.(v) <- d;
          c.id <- v;
          match start c v with
          | Compiled.Park k -> wake.(v) <- max 1 k
          | Compiled.Halt -> wake.(v) <- -1
          | exception e -> fail a v e
        done
      with Shard_stop -> ()
    in
    (* Step the live-list slice [lo, hi) with arena [d] on this domain's
       own stack: run [resume] for each node whose inbox is non-empty or
       whose deadline has arrived, and compact the survivors to the front
       of the slice.  Nodes are visited in ascending id order, so each
       arena's sends come out in serial order for its block. *)
    let step_range d lo hi =
      let a = arenas.(d) and c = ctxs.(d) in
      let r = eng.current_round in
      a.astepped <- 0;
      a.afailed <- None;
      a.afails <- [];
      a.aculled <- 0;
      a.amin_wake <- max_int;
      let kept = ref lo in
      let keep v =
        live.(!kept) <- v;
        incr kept;
        if wake.(v) < a.amin_wake then a.amin_wake <- wake.(v)
      in
      (* A crashed node is frozen: not resumed even when its wake round
         has passed, so it observes nothing until recovery.  Its earliest
         possible resume round is max(wake, recovery), which is what
         bounds fast-forward.  A crash-stopped node (no recovery) can
         never resume — cull it from the live list so the run can still
         terminate. *)
      let keep_crashed v =
        live.(!kept) <- v;
        incr kept;
        let w = wake.(v) in
        let w = if w < crash_until.(v) then crash_until.(v) else w in
        if w < a.amin_wake then a.amin_wake <- w
      in
      (try
         for i = lo to hi - 1 do
           let v = live.(i) in
           if is_crashed v then begin
             if crash_until.(v) = max_int then a.aculled <- a.aculled + 1
             else keep_crashed v
           end
           else if p.ib_head.(v) >= 0 || wake.(v) <= r then begin
             p.arena_of.(v) <- d;
             c.id <- v;
             a.astepped <- a.astepped + 1;
             match resume c v p.ib_head.(v) with
             | Compiled.Park k ->
                 wake.(v) <- r + max 1 k;
                 keep v
             | Compiled.Halt -> wake.(v) <- -1
             | exception e ->
                 (* With fast-forward off, the nodes a propagated failure
                    leaves unstepped keep this round as their wake. *)
                 if not (record_errors || fast_forward) then
                   for j = i + 1 to hi - 1 do
                     wake.(live.(j)) <- r
                   done;
                 fail a v e
           end
           else begin
             (* Fast-forward off is the legacy baseline: every parked
                node is stepped every round, and its hook still runs
                only on an arrival or at its deadline. *)
             if not fast_forward then a.astepped <- a.astepped + 1;
             keep v
           end
         done
       with Shard_stop -> ());
      a.akept <- !kept - lo
    in
    (* Sharded phase execution over the process-wide team.  Each phase is
       one epoch: the coordinator publishes the task under the team
       mutex, takes block 0 itself, and waits for every worker.  The
       mutex acquire/release pairs around each epoch establish the
       happens-before edges that make every per-node write visible across
       domains; there is no other cross-domain communication.  The team
       is acquired lazily on the first round big enough to shard, held
       for the rest of the run, and released on every exit path. *)
    let nworkers = d_req - 1 in
    if Mutex.try_lock team_owner then begin
      Option.iter (fun t -> team_trim t nworkers) !the_team;
      Mutex.unlock team_owner
    end;
    let task_start = ref false in
    let task_len = ref 0 in
    (* Domain [d]'s slice of a [len]-item phase.  The items are cut over
       [min d_req len] blocks, so every block is non-empty and the
       per-phase merges over arenas [0..used-1] see every item; domains
       past that take no part in the phase. *)
    let block d len =
      let used = min d_req len in
      (d * len / used, (d + 1) * len / used)
    in
    let exec d =
      let len = !task_len in
      let lo, hi = block d len in
      if !task_start then start_range d lo hi else step_range d lo hi
    in
    (* Published to the team each epoch and run by workers
       [1..used-1].  An engine bug or OOM on a worker is recorded in its
       arena rather than deadlocking the barrier (a real node failure
       recorded by the shard takes precedence in [check_failures]). *)
    let work d =
      try exec d
      with e ->
        if arenas.(d).afailed = None then
          arenas.(d).afailed <- Some (max_int, e)
    in
    let my_team = ref None in
    let acquire_team () =
      match !my_team with
      | Some t -> Some t
      | None ->
          (* Another run (a concurrent tester in a different domain) may
             hold the team; stepping serially instead is observationally
             identical. *)
          if Mutex.try_lock team_owner then begin
            let t = team_ensure nworkers in
            my_team := Some t;
            Some t
          end
          else None
    in
    let release_team () =
      if !my_team <> None then begin
        my_team := None;
        Mutex.unlock team_owner
      end
    in
    (* Execute one phase (start-up or a round's stepping) over [len]
       items, sharded when worthwhile; returns the number of domains
       used.  Accounting is invariant: the merge reads arenas 0..D-1 in
       order, so any D (including the serial fallback, D = 1 with arena
       0) yields byte-identical engine state. *)
    let run_phase ~start len =
      if nworkers > 0 && len >= par_threshold then begin
        match acquire_team () with
        | None ->
            if start then start_range 0 0 len else step_range 0 0 len;
            1
        | Some t ->
            let used = min d_req len in
            task_start := start;
            task_len := len;
            Mutex.lock t.tm;
            t.tdone_count <- 0;
            t.tactive <- used - 1;
            t.twork <- work;
            t.tepoch <- t.tepoch + 1;
            Condition.broadcast t.tgo;
            Mutex.unlock t.tm;
            exec 0;
            Mutex.lock t.tm;
            while t.tdone_count < t.tactive do
              Condition.wait t.tdone t.tm
            done;
            Mutex.unlock t.tm;
            used
      end
      else begin
        if start then start_range 0 0 len else step_range 0 0 len;
        1
      end
    in
    (* Post-phase merges, all on the coordinating domain. *)
    let check_failures () =
      let best = ref None in
      for d = 0 to d_req - 1 do
        match arenas.(d).afailed with
        | None -> ()
        | Some (v, _) as f -> (
            match !best with
            | Some (bv, _) when bv <= v -> ()
            | _ -> best := f)
      done;
      match !best with Some (_, e) -> raise e | None -> ()
    in
    let merge_failures () =
      if record_errors then
        for d = 0 to d_req - 1 do
          let a = arenas.(d) in
          match a.afails with
          | [] -> ()
          | f ->
              if Obs.Log.would_log Obs.Log.Debug then
                List.iter
                  (fun (r, v, e) ->
                    Obs.Log.debugf ~node:v
                      ~fields:[ ("round", Obs.Log.I r) ]
                      "node program raised (recorded): %s"
                      (Printexc.to_string e))
                  (List.rev f);
              eng.fail_log <- f @ eng.fail_log;
              a.afails <- []
        done
    in
    let total_stepped nd =
      let s = ref 0 in
      for d = 0 to nd - 1 do
        s := !s + arenas.(d).astepped
      done;
      !s
    in
    let pending_sends () =
      let s = ref 0 in
      for d = 0 to d_req - 1 do
        s := !s + arenas.(d).asenders_len
      done;
      !s
    in
    (* Earliest wake round over still-live nodes; [max_int] when dead.
       Updated after every phase, it both gates fast-forward and bounds
       how far it may jump. *)
    let min_wake = ref max_int in
    let culled = ref 0 in
    (* Resume/park trace events are predicted on the coordinating domain,
       never recorded from workers: before a step phase, scan the live
       worklist for the nodes [step_range] steps (ascending id order — the
       serial order); after the barrier, every candidate still parked has
       parked again.  This keeps the event stream byte-identical for every
       domain count.  With fast-forward off every live node is stepped,
       and a re-parked node reports the next round as its wake, as the
       legacy baseline's one-round suspension did. *)
    let fiber_scratch = ref [||] in
    let trace_prescan tr =
      if Array.length !fiber_scratch = 0 then
        fiber_scratch := Array.make (max 1 n) 0;
      let sc = !fiber_scratch in
      let cnt = ref 0 in
      for i = 0 to !live_len - 1 do
        let v = live.(i) in
        if
          (not (is_crashed v))
          && ((not fast_forward) || p.ib_head.(v) >= 0
             || wake.(v) <= eng.current_round)
        then begin
          (* Prefer-arrival rule: a resume with any delivery this round
             is blamed on the first-delivered frame even if its deadline
             also expired — the only attribution that is invariant under
             fast-forward (ff-off spin wakes are pure Deadline resumes,
             arrival rounds look identical either way). *)
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
    let trace_postscan tr cnt =
      let sc = !fiber_scratch and r = eng.current_round in
      for i = 0 to cnt - 1 do
        let v = sc.(i) in
        if wake.(v) >= 0 then
          Trace.fiber_park tr ~round:r ~node:v
            ~wake:(if fast_forward then wake.(v) else min wake.(v) (r + 1))
      done
    in
    (* Crash events taking effect by the current round (or during a span
       the engine fast-forwarded over — node state cannot have changed
       since, so the count is identical whether or not the span was
       skipped): traced, and returned as a count for {!Account}. *)
    let crashes_due () =
      let k = ref 0 in
      while
        !crash_start_i < Array.length crash_starts
        && fst crash_starts.(!crash_start_i) <= eng.current_round
      do
        let r, v = crash_starts.(!crash_start_i) in
        if wake.(v) >= 0 then begin
          incr k;
          match trace with
          | Some tr ->
              Trace.fault tr ~round:r ~kind:Trace.Crash ~sender:v ~dest:v
                ~edge:(-1)
                ~info:(if crash_until.(v) = max_int then -1
                       else crash_until.(v) - r)
          | None -> ()
        end;
        incr crash_start_i
      done;
      !k
    in
    let one_round () =
      (* The clock follows [Stats.rounds], which also moves by skips. *)
      eng.current_round <- Account.open_round acct;
      let round_bits = ref 0 and round_msgs = ref 0 in
      let round_dropped = ref 0
      and round_duplicated = ref 0
      and round_delayed = ref 0 in
      let round_crashed = if has_crash then crashes_due () else 0 in
      (* Deliver: drain arena senders (ascending blocks, each ascending)
         into the inbox slab, summing bits per directed edge.  Each
         sender's entry span is drained in reverse send order, which
         links every inbox chain in exactly the order the pre-rewrite
         engine produced (sorted by sender, same-sender messages in
         reverse send order).  Send entries are NOT consumed here — the
         charge pass below re-scans them in the same order to recover the
         touched edges, then resets the buffers (always before the step
         phase queues new sends).  Fault decisions are per message, drawn
         from the splittable PRNG keyed by (edge, round, per-edge index)
         in this serial order, so the schedule is invariant under the
         domain count; without a policy every message is delivered. *)
      let charge_wire de b =
        incr round_msgs;
        round_bits := !round_bits + b;
        p.edge_bits.(de) <- p.edge_bits.(de) + b
      in
      let trace_fault kind ~sender ~dest ~de ~info =
        match trace with
        | Some tr ->
            Trace.fault tr ~round:eng.current_round ~kind ~sender ~dest
              ~edge:de ~info
        | None -> ()
      in
      let deliver ~sent ~de ~bits sender dest msg =
        (* A message reaching a node that is down is lost — the
           CONGEST-faithful model is silence, never an error. *)
        if is_crashed dest then begin
          incr round_dropped;
          trace_fault Trace.Down_drop ~sender ~dest ~de ~info:0
        end
        else begin
          if p.ib_head.(dest) < 0 then begin
            p.receivers.(p.receivers_len) <- dest;
            p.receivers_len <- p.receivers_len + 1;
            if traced then begin
              p.wake_sender.(dest) <- sender;
              p.wake_sent.(dest) <- sent
            end
          end;
          push_inbox p ~sender ~dest msg;
          match trace with
          | Some tr ->
              Trace.message tr ~round:eng.current_round ~sent ~sender ~dest
                ~edge:de ~bits
          | None -> ()
        end
      in
      (* Deferred messages due this round arrive first, in original
         send order, then fresh sends — so under delays an inbox is
         no longer guaranteed to be sorted by sender.  Bits are
         charged at the round the frame actually occupies. *)
      if !dq_min <= eng.current_round then begin
        (* Exact [dq_min] maintenance plus the fast-forward cap mean
           the only due entries live in this round's bucket, already
           in enqueue (= global sequence) order. *)
        let slot = dq.(eng.current_round mod Array.length dq) in
        assert (
          !dq_min = eng.current_round
          && slot.q_len > 0
          && slot.q_due = eng.current_round);
        for j = 0 to slot.q_len - 1 do
          let de = slot.q_de.(j) in
          let msg = slot.q_msgs.(j) in
          let b = Msg.bits msg in
          (* The send-entry re-scan cannot see this arc; remember it
             for the charge pass (first touch wins, matching the old
             touched-list order: deferred arrivals precede fresh
             sends). *)
          if p.edge_bits.(de) = 0 then push_extra p de;
          charge_wire de b;
          deliver ~sent:slot.q_sent.(j) ~de ~bits:b slot.q_sender.(j)
            slot.q_dest.(j) msg
        done;
        dq_count := !dq_count - slot.q_len;
        slot.q_len <- 0;
        slot.q_due <- -1;
        if !dq_count = 0 then dq_min := max_int
        else begin
          dq_min := max_int;
          Array.iter
            (fun s -> if s.q_len > 0 && s.q_due < !dq_min then
                dq_min := s.q_due)
            dq
        end
      end;
      for d = 0 to d_req - 1 do
        let a = arenas.(d) in
        for i = 0 to a.asenders_len - 1 do
          let v = a.asenders.(i) in
          Bytes.unsafe_set p.queued v '\000';
          let lo = a.aoff.(i) in
          let hi =
            if i + 1 < a.asenders_len then a.aoff.(i + 1) else a.s_len
          in
          for j = hi - 1 downto lo do
            let dest = a.s_dest.(j) and de = a.s_eids.(j) in
            let msg = a.s_msgs.(j) in
            let b = Msg.bits msg in
            let sent = eng.current_round - 1 in
            if is_crashed v then begin
              (* The sender went down with this frame still queued:
                 nothing ever reaches the wire. *)
              incr round_dropped;
              trace_fault Trace.Down_drop ~sender:v ~dest ~de ~info:0
            end
            else
              match
                match fpol with
                | None -> Faults.Deliver
                | Some fp ->
                    Faults.draw fp ~edge:de ~round:eng.current_round
                      ~k:(next_k de)
              with
              | Faults.Deliver ->
                  charge_wire de b;
                  deliver ~sent ~de ~bits:b v dest msg
              | Faults.Drop ->
                  charge_wire de b;
                  incr round_dropped;
                  trace_fault Trace.Drop ~sender:v ~dest ~de ~info:0
              | Faults.Truncate ->
                  (* A truncated frame occupies at most one full
                     bandwidth slot on the wire and is undecodable at
                     the receiver: silence, never corruption. *)
                  charge_wire de (if b < bw then b else bw);
                  incr round_dropped;
                  trace_fault Trace.Truncate ~sender:v ~dest ~de ~info:b
              | Faults.Duplicate ->
                  charge_wire de b;
                  charge_wire de b;
                  incr round_duplicated;
                  trace_fault Trace.Duplicate ~sender:v ~dest ~de ~info:0;
                  deliver ~sent ~de ~bits:b v dest msg;
                  deliver ~sent ~de ~bits:b v dest msg
              | Faults.Delay dl ->
                  incr round_delayed;
                  trace_fault Trace.Delay ~sender:v ~dest ~de ~info:dl;
                  let due = eng.current_round + dl in
                  let slot = dq.(due mod Array.length dq) in
                  assert (slot.q_len = 0 || slot.q_due = due);
                  if slot.q_len = 0 then slot.q_due <- due;
                  push_dslot slot ~sent ~sender:v ~dest ~de msg;
                  incr dq_count;
                  if due < !dq_min then dq_min := due
          done
        done
      done;
      (* Charge bandwidth per directed edge by re-scanning what was
         delivered: deferred-arrival arcs first ([extra_touched]), then
         the send entries in the exact drain order above.  Zeroing
         [edge_bits] doubles as the visited mark, so an arc is charged at
         its first touch — the same position the old explicit touched
         list gave it (and the same arc a strict-mode overflow names).
         The scan also resets [fidx] and finally the send buffers
         themselves, always before the step phase queues new sends. *)
      let max_frames = ref 1 in
      let charge_de de =
        let b = p.edge_bits.(de) in
        if b <> 0 then begin
          p.edge_bits.(de) <- 0;
          if b > eng.estats.max_edge_bits then eng.estats.max_edge_bits <- b;
          if b > bw then begin
            if strict then begin
              Obs.Log.warnf
                ~fields:
                  [ ("round", Obs.Log.I eng.current_round);
                    ("edge", Obs.Log.I de); ("bits", Obs.Log.I b);
                    ("bandwidth", Obs.Log.I bw) ]
                "bandwidth exceeded in strict mode";
              failwith
                (Printf.sprintf
                   "Engine: %d bits on one edge in one round exceeds the \
                    %d-bit bandwidth (strict mode)"
                   b bw)
            end;
            eng.estats.oversized <- eng.estats.oversized + 1;
            let frames = Stats.frames ~bandwidth:bw b in
            if frames > !max_frames then max_frames := frames
          end
        end
      in
      let faulted = fpol <> None in
      for i = 0 to p.extra_len - 1 do
        charge_de p.extra_touched.(i)
      done;
      p.extra_len <- 0;
      for d = 0 to d_req - 1 do
        let a = arenas.(d) in
        for i = 0 to a.asenders_len - 1 do
          let lo = a.aoff.(i) in
          let hi = if i + 1 < a.asenders_len then a.aoff.(i + 1) else a.s_len in
          for j = hi - 1 downto lo do
            let de = a.s_eids.(j) in
            if faulted then p.fidx.(de) <- 0;
            charge_de de
          done
        done;
        a.asenders_len <- 0;
        a.s_len <- 0
      done;
      (* Step the live nodes (sharded when worthwhile). *)
      let fib_cnt =
        match trace with Some tr -> trace_prescan tr | None -> 0
      in
      let nd_used = run_phase ~start:false !live_len in
      let stepped = total_stepped nd_used in
      (match trace with Some tr -> trace_postscan tr fib_cnt | None -> ());
      Account.close_round acct ~stepped ~domains:nd_used
        ~dropped:!round_dropped ~duplicated:!round_duplicated
        ~delayed:!round_delayed ~crashed:round_crashed ~bits:!round_bits
        ~frames:!max_frames ~messages:!round_msgs;
      (match trace with
      | Some tr ->
          if nd_used > 1 then begin
            let mx = ref 0 in
            for d = 0 to nd_used - 1 do
              if arenas.(d).astepped > !mx then mx := arenas.(d).astepped
            done;
            Trace.shard tr ~round:eng.current_round ~domains:nd_used
              ~max_stepped:!mx ~stepped
          end
      | None -> ());
      check_failures ();
      merge_failures ();
      if has_crash then
        for d = 0 to nd_used - 1 do
          culled := !culled + arenas.(d).aculled
        done;
      (* Compact the surviving blocks into a prefix of [live] (ascending
         blits over ascending blocks — plain memmove). *)
      let dst = ref arenas.(0).akept in
      if nd_used > 1 then
        for d = 1 to nd_used - 1 do
          let lo, _ = block d !live_len in
          let a = arenas.(d) in
          if a.akept > 0 && !dst <> lo then Array.blit live lo live !dst a.akept;
          dst := !dst + a.akept
        done;
      live_len := !dst;
      min_wake := max_int;
      for d = 0 to nd_used - 1 do
        if arenas.(d).amin_wake < !min_wake then min_wake := arenas.(d).amin_wake
      done;
      (* Steps read inbox chains in place, so clear every receiver's
         chain here and recycle the slab: the next round appends from
         slot 0. *)
      for i = 0 to p.receivers_len - 1 do
        p.ib_head.(p.receivers.(i)) <- -1
      done;
      p.receivers_len <- 0;
      p.ib_len <- 0
    in
    let completed =
      Account.guard acct
        ~release:(fun () ->
          release_team ();
          if owned then p.in_use <- false)
        (fun () ->
          let (_ : int) = run_phase ~start:true n in
          check_failures ();
          merge_failures ();
          live_len := 0;
          min_wake := max_int;
          for v = 0 to n - 1 do
            if wake.(v) >= 0 then begin
              live.(!live_len) <- v;
              incr live_len;
              if wake.(v) < !min_wake then min_wake := wake.(v)
            end
          done;
          (match trace with
          | Some tr ->
              (* With fast-forward off the first wake is round 1. *)
              for i = 0 to !live_len - 1 do
                let v = live.(i) in
                Trace.fiber_park tr ~round:0 ~node:v
                  ~wake:(if fast_forward then wake.(v) else 1)
              done
          | None -> ());
          (* Quiescent-round fast-forward: with no frame in flight anywhere
             and every live node parked on a wake round strictly in the
             future, the rounds before the earliest wake are provably
             empty.  Under faults, a deferred message's due round bounds
             the skip just like the earliest waiter does: the round a
             delayed frame lands in must be simulated.  (Crash windows
             need no extra cap: a frozen node's effective wake already
             accounts for its recovery, and crash events landing in a
             skipped quiescent span are observably identical to the
             unskipped execution.) *)
          let completed =
            Account.drive acct
              ~live:(fun () -> !live_len > 0)
              ~wake:(fun () ->
                if fast_forward && pending_sends () = 0 then
                  if !dq_min < !min_wake then !dq_min else !min_wake
                else max_int)
              ~step:one_round
          in
          (* A final skip moved only [Stats.rounds]. *)
          eng.current_round <- eng.estats.Stats.rounds;
          (* Crash events inside a span the final fast-forward jumped over
             were never seen by [one_round]; count them now so the tally
             matches a round-by-round execution. *)
          if has_crash then Account.crashed acct (crashes_due ());
          completed && !culled = 0 && eng.fail_log = [])
    in
    Account.finish acct ~mode:"fiber" ~wall:(string_of_int d_req) ~completed;
    {
      outputs = [||];
      failures = List.rev eng.fail_log;
      stats = eng.estats;
      completed;
    }

  (* A general node program runs as a kernel of its own: [start] runs the
     program on a fiber up to its first [Suspend k] and answers [Park k],
     and [resume] continues that fiber with the inbox as a list.  Fibers
     and continuations exist only here. *)
  let run ?bandwidth ?strict ?max_rounds ?telemetry ?trace ?domains
      ?fast_forward ?faults ?on_round ?on_error ?pool g program =
    let n = Graph.n g in
    let outputs = Array.make n None in
    (* Parked continuations; [none_k] (an immediate sentinel compared
       with [==]) marks "not parked", avoiding an [option] box per
       suspension.  Slot [v] is written only by the domain stepping [v]. *)
    let none_k : ((int * Msg.t) list, Compiled.step) Effect.Deep.continuation
        =
      Obj.magic 0
    in
    let conts = Array.make n none_k in
    let start (c : ctx) v =
      (* The fiber runs the program itself and [retc] stores its output
         from the handler's side, so no frame of this closure sits under
         the node program in the fiber's stack. *)
      Effect.Deep.match_with program
        { id = v; eng = c.eng }
        {
          retc =
            (fun o ->
              outputs.(v) <- Some o;
              Compiled.Halt);
          exnc = (function Stopped -> Compiled.Halt | e -> raise e);
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Suspend k ->
                  Some
                    (fun (cont : (a, Compiled.step) Effect.Deep.continuation) ->
                      conts.(v) <- cont;
                      Compiled.Park k)
              | _ -> None);
        }
    in
    let resume c v inbox =
      let k = conts.(v) in
      conts.(v) <- none_k;
      Effect.Deep.continue k (inbox_list c.eng.p inbox)
    in
    (* Every exit path must run this: a node suspended at [wait] when the
       run ends (strict-mode overflow, node exception, [max_rounds], a
       crash-stopped node) is discontinued with [Stopped] so its stack
       unwinds and finalizers ([Fun.protect] etc.) run.  [Stopped] itself
       is swallowed by the handler; any exception a node raises while
       unwinding is dropped here so every node still gets finalized.
       Postcondition: [conts] is all-[none_k], even if a node caught
       [Stopped] and tried to wait again. *)
    let finalize () =
      for v = 0 to n - 1 do
        let k = conts.(v) in
        if k != none_k then begin
          conts.(v) <- none_k;
          (try ignore (Effect.Deep.discontinue k Stopped) with _ -> ());
          conts.(v) <- none_k
        end
      done
    in
    let r =
      Fun.protect ~finally:finalize (fun () ->
          run_kernel ?bandwidth ?strict ?max_rounds ?telemetry ?trace
            ?domains ?fast_forward ?faults ?on_round ?on_error ?pool g ~start
            ~resume)
    in
    (* Post-condition: a completed run has an output at every node.  A
       node that silently dropped out of the run is an engine bug, never
       a result. *)
    if r.completed then
      Array.iteri
        (fun v o ->
          if Option.is_none o then
            failwith
              (Printf.sprintf
                 "Engine.run: run completed but node %d has no output" v))
        outputs;
    { r with outputs }
end
