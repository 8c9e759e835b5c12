type config = {
  capacity : int;
  sample_messages : int;
  sample_fibers : int;
  sample_spans : int;
}

let default_config =
  { capacity = 65536; sample_messages = 1; sample_fibers = 1; sample_spans = 1 }

type fault_kind = Drop | Duplicate | Delay | Truncate | Crash | Down_drop

type wake_cause = Wake_unknown | Wake_deliver | Wake_deadline

type event =
  | Round of { round : int; bits : int; frames : int; messages : int;
               stepped : int }
  | Message of { round : int; sent : int; sender : int; dest : int;
                 edge : int; bits : int }
  | Fault of { round : int; kind : fault_kind; sender : int; dest : int;
               edge : int; info : int }
  | Resume of { round : int; node : int; cause : wake_cause; sender : int;
                sent : int }
  | Park of { round : int; node : int; wake : int }
  | Phase_open of { round : int; label : string }
  | Phase_close of { round : int; label : string }
  | Span_open of { round : int; label : string }
  | Span_close of { round : int; label : string }
  | Fast_forward of { round : int; rounds : int }
  | Shard of { round : int; domains : int; max_stepped : int;
               stepped : int }
  | Run_end of { round : int; rounds : int }

type totals = {
  rounds : int;
  frames : int;
  bits : int;
  messages : int;
  fast_forwarded : int;
  dropped : int;
  duplicated : int;
  delayed : int;
  crashed : int;
  recorded : int;
  overwritten : int;
  sampled_out : int;
}

type sim_phase = {
  label : string;
  rounds : int;
  bits : int;
  frames : int;
  messages : int;
  fast_forwarded : int;
}

type host_phase = {
  label : string;
  wall_s : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  par_rounds : int;
  stepped : int;
  max_stepped : int;
  max_domains : int;
}

(* Event slot layout: [kind; time; a; b; c; d; e].  Kind codes are the
   constructor order of [event]; fault kind codes the order of
   [fault_kind]; wake-cause codes the order of [wake_cause].  The same
   codes are the wire format of [Report.Ctrace]. *)
let slot = 7

(* Every event the ring or the samplers lose is a hole an offline
   analyzer (critpath) cannot see through; surfacing the count as a
   host-side metric lets planarmon and the CLIs warn loudly instead of
   under-reporting silently.  Host-side because ring eviction depends on
   the host event mix (Shard events vary with --domains). *)
let m_dropped =
  Obs.Metrics.counter ~stable:false
    ~help:"Trace events lost to ring overwrite or per-category sampling"
    "trace_dropped_events"

(* Host-side profile of one closed phase: what no other recorder has.
   Its label, [par_rounds], [stepped] and [max_domains] are read from the
   telemetry phase it belongs to. *)
type host_delta = {
  h_wall_s : float;
  h_minor_words : float;
  h_major_words : float;
  h_minor_collections : int;
  h_major_collections : int;
  h_max_stepped : int;
}

type t = {
  tel : Telemetry.t;  (* the simulated counts this trace projects *)
  mutable cfg : config;  (* mutable only for [restore_into] *)
  mutable ev : int array;  (* ring, cfg.capacity * slot ints *)
  mutable written : int;  (* events ever pushed (ring index = mod cap) *)
  (* Label intern table: spans/phases carry an id, not a string. *)
  labels : (string, int) Hashtbl.t;
  mutable label_names : string array;
  mutable label_count : int;
  mutable base : int;  (* absolute round at which the current run starts *)
  mutable meta : (int * int * int) option;
  mutable sampled_out : int;
  mutable msg_seen : int;
  mutable span_seen : int;
  (* Open phase, host side: *)
  mutable p_wall0 : float;
  mutable p_gc0 : Gc.stat;
  mutable p_max_stepped : int;
  mutable host_closed : host_delta list;
      (* reverse chronological, one per closed telemetry phase *)
  mutable finished : bool;
}

let intern t s =
  match Hashtbl.find_opt t.labels s with
  | Some id -> id
  | None ->
      let id = t.label_count in
      if id = Array.length t.label_names then begin
        let na = Array.make (max 8 (2 * id)) "" in
        Array.blit t.label_names 0 na 0 id;
        t.label_names <- na
      end;
      t.label_names.(id) <- s;
      t.label_count <- id + 1;
      Hashtbl.add t.labels s id;
      id

let no_delta =
  {
    h_wall_s = 0.0;
    h_minor_words = 0.0;
    h_major_words = 0.0;
    h_minor_collections = 0;
    h_major_collections = 0;
    h_max_stepped = 0;
  }

let create ?(config = default_config) tel =
  let cfg =
    {
      capacity = max 1 config.capacity;
      sample_messages = max 1 config.sample_messages;
      sample_fibers = max 1 config.sample_fibers;
      sample_spans = max 1 config.sample_spans;
    }
  in
  (* Phases [tel] closed before this trace saw it (a resume from a
     checkpoint taken untraced) get a zero host profile, so the host
     profiles stay one per closed telemetry phase. *)
  let closed =
    List.length (Telemetry.phases tel)
    - Option.fold ~none:0 ~some:(fun _ -> 1) (Telemetry.open_phase tel)
  in
  let t =
    {
      tel;
      cfg;
      ev = Array.make (cfg.capacity * slot) 0;
      written = 0;
      labels = Hashtbl.create 16;
      label_names = Array.make 8 "";
      label_count = 0;
      base = 0;
      meta = None;
      sampled_out = 0;
      msg_seen = 0;
      span_seen = 0;
      p_wall0 = Unix.gettimeofday ();
      p_gc0 = Gc.quick_stat ();
      p_max_stepped = 0;
      host_closed = List.init closed (fun _ -> no_delta);
      finished = false;
    }
  in
  ignore (intern t "run" : int);
  t

let config t = t.cfg
let telemetry t = t.tel

let resolve ~telemetry trace =
  match (telemetry, trace) with
  | _, None -> telemetry
  | Some tel, Some t when tel != t.tel ->
      invalid_arg
        "Trace.resolve: a trace projects its own telemetry; pass that one \
         (Trace.telemetry) or none"
  | _, Some t -> Some t.tel

(* Deep snapshot for checkpointing: every recorded field and the
   projected telemetry, safe to Marshal (ints, strings, lists and one
   [Gc.stat] record — no closures). *)
let copy t =
  {
    t with
    tel = Telemetry.copy t.tel;
    ev = Array.copy t.ev;
    labels = Hashtbl.copy t.labels;
    label_names = Array.copy t.label_names;
  }

let restore_into dst ~from =
  dst.cfg <- from.cfg;
  dst.ev <- Array.copy from.ev;
  dst.written <- from.written;
  Hashtbl.reset dst.labels;
  Hashtbl.iter (fun k v -> Hashtbl.add dst.labels k v) from.labels;
  dst.label_names <- Array.copy from.label_names;
  dst.label_count <- from.label_count;
  dst.base <- from.base;
  dst.meta <- from.meta;
  dst.sampled_out <- from.sampled_out;
  dst.msg_seen <- from.msg_seen;
  dst.span_seen <- from.span_seen;
  dst.p_max_stepped <- from.p_max_stepped;
  dst.host_closed <- from.host_closed;
  dst.finished <- from.finished;
  (* Host-side deltas restart at the restore point: wall clock and GC
     state do not survive a process boundary, so the open phase's host
     profile measures only post-restore work (same rule as
     [Telemetry.restore_into]). *)
  dst.p_wall0 <- Unix.gettimeofday ();
  dst.p_gc0 <- Gc.quick_stat ()

let push t kind time a b c d e =
  let i = t.written mod t.cfg.capacity * slot in
  t.ev.(i) <- kind;
  t.ev.(i + 1) <- time;
  t.ev.(i + 2) <- a;
  t.ev.(i + 3) <- b;
  t.ev.(i + 4) <- c;
  t.ev.(i + 5) <- d;
  t.ev.(i + 6) <- e;
  t.written <- t.written + 1;
  if t.written > t.cfg.capacity then Obs.Metrics.inc m_dropped

let sampled_out t k =
  t.sampled_out <- t.sampled_out + k;
  Obs.Metrics.inc ~by:k m_dropped

let set_meta t ~n ~m ~bandwidth =
  if t.meta = None then t.meta <- Some (n, m, bandwidth)

let meta t = t.meta

let round_tick t ~round ~bits ~frames ~messages ~stepped =
  push t 0 (t.base + round) bits frames messages stepped 0

let message t ~round ~sent ~sender ~dest ~edge ~bits =
  let k = t.msg_seen in
  t.msg_seen <- k + 1;
  if k mod t.cfg.sample_messages = 0 then
    push t 1 (t.base + round) (t.base + sent) sender dest edge bits
  else sampled_out t 1

let fault_code = function
  | Drop -> 0
  | Duplicate -> 1
  | Delay -> 2
  | Truncate -> 3
  | Crash -> 4
  | Down_drop -> 5

let fault_of_code = function
  | 0 -> Drop
  | 1 -> Duplicate
  | 2 -> Delay
  | 3 -> Truncate
  | 4 -> Crash
  | _ -> Down_drop

let fault t ~round ~kind ~sender ~dest ~edge ~info =
  push t 2 (t.base + round) (fault_code kind) sender dest edge info

let want_fiber t node = node mod t.cfg.sample_fibers = 0

let cause_code = function
  | Wake_unknown -> 0
  | Wake_deliver -> 1
  | Wake_deadline -> 2

let cause_of_code = function 1 -> Wake_deliver | 2 -> Wake_deadline
  | _ -> Wake_unknown

let fiber_resume t ~round ~node ~cause ~sender ~sent =
  if want_fiber t node then
    (* [sent] is stored on the absolute timeline like [Message.sent]; -1
       (no causal delivery) stays -1 so decode can tell it apart. *)
    let abs_sent = if sent < 0 then -1 else t.base + sent in
    push t 3 (t.base + round) node (cause_code cause) sender abs_sent 0
  else sampled_out t 1

let fiber_park t ~round ~node ~wake =
  if want_fiber t node then push t 4 (t.base + round) node (t.base + wake) 0 0 0
  else sampled_out t 1

let shard t ~round ~domains ~max_stepped ~stepped =
  t.p_max_stepped <- t.p_max_stepped + max_stepped;
  push t 10 (t.base + round) domains max_stepped stepped 0 0

let fast_forward t ~round ~rounds = push t 9 (t.base + round) rounds 0 0 0 0

let run_end t ~rounds =
  (* Recorded before the base moves so the event's timestamp is the
     run's final absolute round; critpath uses it to stitch the
     happens-before chains of consecutive engine runs into one path. *)
  push t 11 (t.base + rounds) rounds 0 0 0 0;
  t.base <- t.base + rounds

(* The open phase's host profile up to [wall]/[gc]: one snapshot each, so
   its words and collections come from the same instant. *)
let host_delta t ~wall ~(gc : Gc.stat) =
  {
    h_wall_s = wall -. t.p_wall0;
    h_minor_words = gc.Gc.minor_words -. t.p_gc0.Gc.minor_words;
    h_major_words = gc.Gc.major_words -. t.p_gc0.Gc.major_words;
    h_minor_collections =
      gc.Gc.minor_collections - t.p_gc0.Gc.minor_collections;
    h_major_collections =
      gc.Gc.major_collections - t.p_gc0.Gc.major_collections;
    h_max_stepped = t.p_max_stepped;
  }

(* Closing a phase captures the host-side deltas of the telemetry's open
   phase, before that phase rotates.  A phase the telemetry drops as
   empty gets no host profile either, so the two views stay aligned; one
   that [finish] already closed gets no second one. *)
let close_phase t =
  let wall = Unix.gettimeofday () in
  let gc = Gc.quick_stat () in
  (match Telemetry.open_phase t.tel with
  | Some p when not t.finished ->
      push t 6 t.base (intern t p.Telemetry.label) 0 0 0 0;
      t.host_closed <- host_delta t ~wall ~gc :: t.host_closed
  | _ -> ());
  t.p_wall0 <- wall;
  t.p_gc0 <- gc;
  t.p_max_stepped <- 0

let phase t label =
  close_phase t;
  Telemetry.phase t.tel label;
  t.finished <- false;
  push t 5 t.base (intern t label) 0 0 0 0

let span t label f =
  let k = t.span_seen in
  t.span_seen <- k + 1;
  if k mod t.cfg.sample_spans = 0 then begin
    let id = intern t label in
    push t 7 t.base id 0 0 0 0;
    Fun.protect ~finally:(fun () -> push t 8 t.base id 0 0 0 0) f
  end
  else begin
    sampled_out t 2;
    f ()
  end

let finish t =
  if not t.finished then begin
    close_phase t;
    t.finished <- true
  end

let totals t =
  let phases = Telemetry.phases t.tel in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
  {
    rounds = sum (fun p -> p.Telemetry.rounds);
    frames = sum (fun p -> p.Telemetry.frames);
    bits = sum (fun p -> p.Telemetry.bits);
    messages = sum (fun p -> p.Telemetry.messages);
    fast_forwarded = sum (fun p -> p.Telemetry.fast_forwarded);
    dropped = sum (fun p -> p.Telemetry.dropped);
    duplicated = sum (fun p -> p.Telemetry.duplicated);
    delayed = sum (fun p -> p.Telemetry.delayed);
    crashed = sum (fun p -> p.Telemetry.crashed);
    recorded = t.written;
    overwritten = max 0 (t.written - t.cfg.capacity);
    sampled_out = t.sampled_out;
  }

let sim_phases t =
  List.map
    (fun (p : Telemetry.phase_view) ->
      {
        label = p.label;
        rounds = p.rounds;
        bits = p.bits;
        frames = p.frames;
        messages = p.messages;
        fast_forwarded = p.fast_forwarded;
      })
    (Telemetry.phases t.tel)

let host_phases t =
  let sims = Telemetry.phases t.tel in
  let deltas =
    match Telemetry.open_phase t.tel with
    | Some _ when not t.finished ->
        List.rev
          (host_delta t ~wall:(Unix.gettimeofday ()) ~gc:(Gc.quick_stat ())
          :: t.host_closed)
    | _ -> List.rev t.host_closed
  in
  (* One host profile per telemetry phase: every rotation goes through
     {!phase}, and [create] covers the phases closed before it. *)
  assert (List.length sims = List.length deltas);
  List.map2
    (fun (p : Telemetry.phase_view) h ->
      {
        label = p.label;
        wall_s = h.h_wall_s;
        minor_words = h.h_minor_words;
        major_words = h.h_major_words;
        minor_collections = h.h_minor_collections;
        major_collections = h.h_major_collections;
        par_rounds = p.parallel_rounds;
        stepped = p.stepped;
        max_stepped = h.h_max_stepped;
        max_domains = p.max_domains;
      })
    sims deltas

let decode t i =
  let i = i mod t.cfg.capacity * slot in
  let time = t.ev.(i + 1)
  and a = t.ev.(i + 2)
  and b = t.ev.(i + 3)
  and c = t.ev.(i + 4)
  and d = t.ev.(i + 5)
  and e = t.ev.(i + 6) in
  match t.ev.(i) with
  | 0 -> Round { round = time; bits = a; frames = b; messages = c; stepped = d }
  | 1 ->
      Message { round = time; sent = a; sender = b; dest = c; edge = d;
                bits = e }
  | 2 ->
      Fault { round = time; kind = fault_of_code a; sender = b; dest = c;
              edge = d; info = e }
  | 3 ->
      Resume { round = time; node = a; cause = cause_of_code b; sender = c;
               sent = d }
  | 4 -> Park { round = time; node = a; wake = b }
  | 5 -> Phase_open { round = time; label = t.label_names.(a) }
  | 6 -> Phase_close { round = time; label = t.label_names.(a) }
  | 7 -> Span_open { round = time; label = t.label_names.(a) }
  | 8 -> Span_close { round = time; label = t.label_names.(a) }
  | 9 -> Fast_forward { round = time; rounds = a }
  | 10 -> Shard { round = time; domains = a; max_stepped = b; stepped = c }
  | 11 -> Run_end { round = time; rounds = a }
  | k -> invalid_arg (Printf.sprintf "Trace.decode: bad kind %d" k)

let iter_events t f =
  let first = max 0 (t.written - t.cfg.capacity) in
  for i = first to t.written - 1 do
    f (decode t i)
  done
