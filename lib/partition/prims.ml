open Graphlib

module Eng = State.Eng
module Cmp = State.Cmp

let sync = Eng.sync
let wait = Eng.wait
let round = Eng.round
let send = Eng.send
let reject = Eng.reject
let rng = Eng.rng

(* Arrival-driven budget loop: call [on_inbox] for each non-empty inbox
   until [budget] rounds have passed, parking the node in between (so the
   engine can fast-forward network-wide quiet spans).  Observationally
   identical to [budget] iterations of [sync] when the processing of an
   empty inbox is a no-op — which is the only sound way to use it. *)
let wait_rounds ctx ~budget on_inbox =
  let deadline = Eng.round ctx + budget in
  let rec pump () =
    let left = deadline - Eng.round ctx in
    if left > 0 then begin
      (match Eng.wait ctx left with [] -> () | inbox -> on_inbox inbox);
      pump ()
    end
  in
  pump ()

(* [traced st label f] wraps one primitive's engine run in a trace span
   when the state carries a trace; spans nest under the current trace
   phase and cost nothing when tracing is off. *)
let traced (st : State.t) label f =
  match st.State.trace with
  | Some tr -> Congest.Trace.span tr label f
  | None -> f ()

let run_program ?(seed = 0) (st : State.t) program =
  let res =
    Eng.run ~seed ?telemetry:st.State.telemetry ?trace:st.State.trace
      ~domains:st.State.domains ~fast_forward:st.State.fast_forward
      ?faults:st.State.faults ?on_round:st.State.on_round
      ~pool:st.State.pool st.State.graph
      (fun ctx -> program ctx (State.node st (Eng.my_id ctx)))
  in
  (* Charge before judging completion: a degraded run's rounds and fault
     counters must still land in [st.stats] so higher layers can report
     honestly what happened on the wire. *)
  Congest.Stats.add_into st.State.stats res.Eng.stats;
  if not res.Eng.completed then
    if Congest.Faults.active st.State.faults then
      raise
        (Congest.Faults.Degraded
           "Prims: node program did not complete under fault injection")
    else failwith "Prims: node program did not complete";
  (* Keep every (round, node, reason) entry: identical rejections from
     different rounds must not collapse (display paths dedup later). *)
  st.State.rejections <-
    List.map (fun (_, v, reason) -> (v, reason)) res.Eng.rejections
    @ st.State.rejections

(* The four lockstep primitives below ([refresh_roots], [bcast],
   [converge], [boundary]) are each one kernel (see
   [Congest.Compiled.step]) written against [Congest.Compiled.NET] and
   instantiated for both executors: [Congest.Compiled]'s flat array
   passes ([Kc]), or the fiber engine through [Eng.kernel] ([Ke]).
   Stats and Telemetry are byte-identical either way, so the dispatch
   is invisible to callers.  General [run_program] node programs always stay on the
   fiber engine: they can wait at arbitrary nesting depths, which is
   exactly what the kernel shape gives up. *)
let compiled_active (st : State.t) =
  Congest.Compiled.pick st.State.mode
    ~faults:(Congest.Faults.active st.State.faults)

(* [run_program]'s compiled counterpart.  Faults are never active here
   ([compiled_active] excludes them), so an incomplete run is a plain
   budget failure, never a Degraded verdict. *)
let run_compiled (st : State.t) ~start ~resume =
  let res =
    Cmp.run ?telemetry:st.State.telemetry ?trace:st.State.trace
      ~fast_forward:st.State.fast_forward ?on_round:st.State.on_round
      ~pool:(State.cmp_pool st) st.State.graph ~start ~resume
  in
  Congest.Stats.add_into st.State.stats res.Cmp.stats;
  if not res.Cmp.completed then failwith "Prims: node program did not complete";
  st.State.rejections <-
    List.map (fun (_, v, reason) -> (v, reason)) res.Cmp.rejections
    @ st.State.rejections

(* How a tree primitive's payload rides a message: a flat int list in
   [Down]/[Up], or a priced host value in [Held].  [unwrap] only
   projects; the kernels check the tag first. *)
type 'p carrier = { wrap : int -> 'p -> Msg.t; unwrap : Msg.t -> 'p }

let down =
  {
    wrap = (fun t l -> Msg.Down (t, l));
    unwrap = (function Msg.Down (_, l) -> l | _ -> assert false);
  }

let up =
  {
    wrap = (fun t l -> Msg.Up (t, l));
    unwrap = (function Msg.Up (_, l) -> l | _ -> assert false);
  }

let held =
  {
    wrap = (fun t p -> Msg.Held (t, p));
    unwrap = (function Msg.Held (_, p) -> p | _ -> assert false);
  }

let tag_of = function
  | Msg.Down (t, _) | Msg.Up (t, _) | Msg.Bdry (t, _) | Msg.Held (t, _) -> t
  | Msg.Root _ -> -1

let check_tag prim ~tag msg =
  let t = tag_of msg in
  if t <> tag then
    failwith (Printf.sprintf "%s: lockstep violation (tag %d vs %d)" prim t tag)

(* [N.run] executes a kernel over the state's graph and charges the run
   to [st]. *)
module Kernels (N : sig
  include Congest.Compiled.NET with type msg = Msg.t

  val run :
    State.t ->
    start:(ctx -> int -> Congest.Compiled.step) ->
    resume:(ctx -> int -> inbox -> Congest.Compiled.step) ->
    unit
end) =
struct
  open Congest.Compiled

  let refresh_roots (st : State.t) =
    let g = st.State.graph in
    let start ctx v =
      let nd = State.node st v in
      Graph.iter_incident g v (fun nbr e ->
          N.send_port ctx ~dest:nbr ~eid:e (Msg.Root nd.State.part_root));
      Park 1
    and resume ctx v inbox =
      let nd = State.node st v in
      (* Inbox senders arrive in ascending order, matching port order, so
         one pointer walks both in a single merged pass. *)
      if not (N.inbox_is_empty inbox) then begin
        let port = ref 0 in
        N.iter_inbox ctx
          (fun from msg ->
            match msg with
            | Msg.Root r ->
                while Graph.nbr g v !port <> from do
                  incr port
                done;
                nd.State.nbr_root.(!port) <- r
            | _ -> assert false)
          inbox
      end;
      Halt
    in
    N.run st ~start ~resume

  (* [bcast] and [converge] park for the whole budget: the only rounds
     that change anything are the ones a message arrives in, so a node
     is re-entered on arrivals only (and the executor may fast-forward
     network-wide quiet spans) without altering the round schedule —
     every node still finishes exactly at round [budget]. *)
  let bcast c (st : State.t) ~budget ~tag ~at_root ~on_receive =
    (* A relay forwards the very message value it received: every hop
       of one part's broadcast carries one physical message, which the
       compiled delivery pass prices once per round. *)
    let relay ctx nd msg =
      List.iter (fun c -> N.send ctx ~dest:c msg) nd.State.children
    in
    let receive nd msg = on_receive nd (c.unwrap msg) in
    let start ctx v =
      let nd = State.node st v in
      (if State.is_root st v then
         match at_root nd with
         | Some payload ->
             on_receive nd payload;
             relay ctx nd (c.wrap tag payload)
         | None -> ());
      if budget > 0 then Park budget else Halt
    and resume ctx v inbox =
      let nd = State.node st v in
      if not (N.inbox_is_empty inbox) then
        N.iter_inbox ctx
          (fun from msg ->
            check_tag "bcast" ~tag msg;
            assert (from = nd.State.parent);
            receive nd msg;
            relay ctx nd msg)
          inbox;
      let left = budget - N.round ctx in
      if left > 0 then Park left else Halt
    in
    N.run st ~start ~resume

  let converge c (st : State.t) ~budget ~tag ~init ~combine ~encode ~decode
      ~at_root =
    let n = Graph.n st.State.graph in
    let pending = Array.make n 0 in
    let accs = Array.make n None in
    let sent = Bytes.make n '\000' in
    let decode msg = decode (c.unwrap msg) in
    (* Fires at a leaf on start-up and otherwise only on a round an [Up]
       arrives.  The accumulator is dropped once handed on. *)
    let maybe_send ctx v nd =
      if pending.(v) = 0 && Bytes.get sent v = '\000' then begin
        Bytes.set sent v '\001';
        let acc = Option.get accs.(v) in
        accs.(v) <- None;
        if nd.State.parent >= 0 then
          N.send ctx ~dest:nd.State.parent (c.wrap tag (encode acc))
        else at_root nd acc
      end
    in
    let park v left =
      if left > 0 then Park left
      else if Bytes.get sent v = '\000' then
        failwith "converge: budget too small for tree depth"
      else Halt
    in
    let start ctx v =
      let nd = State.node st v in
      pending.(v) <- List.length nd.State.children;
      accs.(v) <- Some (init nd);
      maybe_send ctx v nd;
      park v budget
    and resume ctx v inbox =
      let nd = State.node st v in
      (* A deadline wake-up with no traffic changes nothing. *)
      if not (N.inbox_is_empty inbox) then begin
        N.iter_inbox ctx
          (fun from msg ->
            check_tag "converge" ~tag msg;
            if not (List.mem from nd.State.children) then
              failwith "converge: message from non-child";
            accs.(v) <- Some (combine (Option.get accs.(v)) (decode msg));
            pending.(v) <- pending.(v) - 1)
          inbox;
        maybe_send ctx v nd
      end;
      park v (budget - N.round ctx)
    in
    N.run st ~start ~resume

  (* The payload is computed once per sender, at its first cut port, and
     that one [Bdry] value goes out on every addressed cut port: the
     compiled delivery pass prices a run of physically equal messages
     once.  Payloads and filters are pure, so evaluating them once per
     sender instead of once per port changes nothing on the wire. *)
  let rec first_cut (nd : State.node) port deg =
    if port >= deg || nd.State.nbr_root.(port) <> nd.State.part_root then port
    else first_cut nd (port + 1) deg

  let boundary (st : State.t) ~tag ~to_nbr ~payload ~on_receive =
    let g = st.State.graph in
    let start ctx v =
      let nd = State.node st v in
      let deg = Graph.degree g v in
      let port = first_cut nd 0 deg in
      (if port < deg then
         match payload nd with
         | Some pl ->
             let msg = Msg.Bdry (tag, pl) in
             for port = port to deg - 1 do
               if nd.State.nbr_root.(port) <> nd.State.part_root then begin
                 let nbr = Graph.nbr g v port in
                 if to_nbr nd nbr then
                   N.send_port ctx ~dest:nbr
                     ~eid:(Graph.incident_eid g v port)
                     msg
               end
             done
         | None -> ());
      Park 1
    and resume ctx v inbox =
      let nd = State.node st v in
      if not (N.inbox_is_empty inbox) then
        N.iter_inbox ctx
          (fun from msg ->
            match msg with
            | Msg.Bdry (t, pl) ->
                if t <> tag then
                  failwith
                    (Printf.sprintf
                       "boundary: lockstep violation (tag %d vs %d)" t tag);
                on_receive nd ~nbr:from pl
            | _ -> assert false)
          inbox;
      Halt
    in
    N.run st ~start ~resume
end

module Ke = Kernels (struct
  include Eng

  let run st ~start ~resume =
    run_program st (fun ctx _ -> Eng.kernel ~start ~resume ctx)
end)

module Kc = Kernels (struct
  include Cmp

  let run = run_compiled
end)

let refresh_roots st =
  traced st "refresh_roots" @@ fun () ->
  if compiled_active st then Kc.refresh_roots st else Ke.refresh_roots st

let bcast_via c st ~budget ~tag ~at_root ~on_receive =
  traced st "bcast" @@ fun () ->
  if compiled_active st then Kc.bcast c st ~budget ~tag ~at_root ~on_receive
  else Ke.bcast c st ~budget ~tag ~at_root ~on_receive

let bcast st ~budget ~tag ~at_root ~on_receive =
  bcast_via down st ~budget ~tag ~at_root ~on_receive

let bcast_held st ~budget ~tag ~at_root ~on_receive =
  bcast_via held st ~budget ~tag ~at_root ~on_receive

let converge_via c st ~budget ~tag ~init ~combine ~encode ~decode ~at_root =
  traced st "converge" @@ fun () ->
  if compiled_active st then
    Kc.converge c st ~budget ~tag ~init ~combine ~encode ~decode ~at_root
  else Ke.converge c st ~budget ~tag ~init ~combine ~encode ~decode ~at_root

let converge st ~budget ~tag ~init ~combine ~encode ~decode ~at_root =
  converge_via up st ~budget ~tag ~init ~combine ~encode ~decode ~at_root

let converge_held st ~budget ~tag ~init ~combine ~encode ~decode ~at_root =
  converge_via held st ~budget ~tag ~init ~combine ~encode ~decode ~at_root

let every_nbr _ _ = true

let boundary ?(to_nbr = every_nbr) st ~tag ~payload ~on_receive =
  traced st "boundary" @@ fun () ->
  if compiled_active st then Kc.boundary st ~tag ~to_nbr ~payload ~on_receive
  else Ke.boundary st ~tag ~to_nbr ~payload ~on_receive
